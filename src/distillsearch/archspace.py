"""Architecture configurations and the legal hyperparameter grid.

An :class:`ArchConfig` is one point in the student architecture space:
five searched hyperparameters (encoder layers, hidden width, attention
heads, feed-forward width, vocabulary size) plus two fixed context
parameters (maximum sequence length and number of output classes).
A :class:`SearchSpace` holds the per-hyperparameter grids of legal
values for student models; its ``grids`` are the one list of them that
the space's size and the GA's draws read.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, asdict
from typing import Optional, Sequence

SEARCHED_FIELDS = ("layers", "hidden", "heads", "ffn", "vocab")


@dataclass(frozen=True)
class ArchConfig:
    """One encoder-classifier architecture."""

    layers: int
    hidden: int
    heads: int
    ffn: int
    vocab: int
    max_seq_len: int = 512
    num_classes: int = 2

    def __post_init__(self):
        for name in (*SEARCHED_FIELDS, "max_seq_len", "num_classes"):
            value = getattr(self, name)
            if type(value) is not int or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.hidden % self.heads != 0:
            raise ValueError(
                f"hidden ({self.hidden}) must be divisible by heads ({self.heads})"
            )

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, doc: dict) -> "ArchConfig":
        if not isinstance(doc, dict):
            raise ValueError(f"config document must be a JSON object, got {doc!r:.40}")
        known = {f: doc[f] for f in (*SEARCHED_FIELDS, "max_seq_len", "num_classes") if f in doc}
        missing = [f for f in SEARCHED_FIELDS if f not in known]
        if missing:
            raise ValueError(f"config document missing fields: {missing}")
        return cls(**known)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ArchConfig":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class GridRange:
    """Inclusive [lower, upper] range walked at a fixed step."""

    lower: int
    upper: int
    step: int

    def __post_init__(self):
        if self.lower < 1 or self.upper < self.lower or self.step < 1:
            raise ValueError(f"bad grid range {self}")
        if (self.upper - self.lower) % self.step != 0:
            raise ValueError(f"upper not on grid: {self}")

    def values(self) -> range:
        return range(self.lower, self.upper + 1, self.step)

    def size(self) -> int:
        return (self.upper - self.lower) // self.step + 1


@dataclass(frozen=True)
class SearchSpace:
    """Legal value grids for the five searched hyperparameters."""

    layers: GridRange
    hidden: GridRange
    heads: tuple[int, ...]
    ffn: GridRange
    vocab: GridRange

    @functools.cached_property
    def grids(self) -> tuple[Sequence[int], ...]:
        """Each searched field's legal values, in ``SEARCHED_FIELDS`` order."""
        return tuple(self.heads if field == "heads" else getattr(self, field).values()
                     for field in SEARCHED_FIELDS)

    def grid_values(self, field: str) -> Sequence[int]:
        return self.grids[SEARCHED_FIELDS.index(field)]

    def cardinality(self) -> int:
        return math.prod(map(len, self.grids))


@dataclass(frozen=True)
class Verdict:
    """Result of validating a config against a search space."""

    ok: bool
    violation: Optional[str] = None

    def __bool__(self) -> bool:
        return self.ok


def default_table1() -> SearchSpace:
    """The default student search grid (11,059,200 combinations)."""
    return SearchSpace(
        layers=GridRange(1, 12, 1),
        hidden=GridRange(16, 768, 16),
        heads=(1, 2, 4, 8),
        ffn=GridRange(32, 3072, 32),
        vocab=GridRange(1000, 50000, 1000),
    )


def pretrained_reference() -> ArchConfig:
    """The CodeBERT/GraphCodeBERT-class reference architecture.

    heads=12 and vocab=50265 are legal for the reference model but sit
    outside the student grid, so this config fails validation against
    ``default_table1()``; it exists for size/FLOPs estimation only.
    """
    return ArchConfig(layers=12, hidden=768, heads=12, ffn=3072, vocab=50265,
                      max_seq_len=512, num_classes=2)


def validate(config: ArchConfig, space: SearchSpace) -> Verdict:
    """Check every searched field against its grid; first violation wins."""
    for field in SEARCHED_FIELDS:
        value = getattr(config, field)
        if field == "heads":
            if value not in space.heads:
                return Verdict(False, f"heads={value} not in {set(space.heads)}")
            continue
        grid: GridRange = getattr(space, field)
        if value < grid.lower:
            return Verdict(False, f"{field}={value} below lower bound {grid.lower}")
        if value > grid.upper:
            return Verdict(False, f"{field}={value} above upper bound {grid.upper}")
        if (value - grid.lower) % grid.step != 0:
            return Verdict(False, f"{field}={value} off-grid (step {grid.step} from {grid.lower})")
    return Verdict(True)
