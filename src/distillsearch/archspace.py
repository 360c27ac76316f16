"""Architecture configurations and the legal hyperparameter grid.

An :class:`ArchConfig` is one point in the student architecture space:
five searched hyperparameters (encoder layers, hidden width, attention
heads, feed-forward width, vocabulary size) plus two fixed context
parameters (maximum sequence length and number of output classes).
A :class:`SearchSpace` is five grids of legal student values, one per
searched field: ``range``s for layers, hidden, ffn and vocab, a tuple for
heads. Its ``grids`` are the one list of them that the space's size and the
GA's draws read. On construction it refuses a layers, hidden, ffn or vocab
grid that is not a ``range``, any grid that is empty, holds a value below 1
or is not strictly ascending, and any hidden width that some heads value
does not split.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
from dataclasses import asdict, dataclass, fields
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
        if unknown := set(doc) - {f.name for f in fields(cls)}:
            raise ValueError(f"unknown config keys {sorted(unknown, key=str)}")
        if missing := [f for f in SEARCHED_FIELDS if f not in doc]:
            raise ValueError(f"config document missing fields: {missing}")
        return cls(**doc)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    @classmethod
    def from_json(cls, text: str) -> "ArchConfig":
        return cls.from_dict(json.loads(text))


@dataclass(frozen=True)
class SearchSpace:
    """Legal value grids for the five searched hyperparameters."""

    layers: range
    hidden: range
    heads: tuple[int, ...]
    ffn: range
    vocab: range

    def __post_init__(self):
        for field, grid in zip(SEARCHED_FIELDS, self.grids):
            if field != "heads" and type(grid) is not range:
                raise ValueError(f"{field} grid {grid!r} must be a range")
            if not grid or grid[0] < 1 or any(a >= b for a, b in zip(grid, grid[1:])):
                raise ValueError(f"{field} grid {grid} must be non-empty, "
                                 f"positive and strictly ascending")
        for hidden, heads in itertools.product(self.hidden, self.heads):
            if hidden % heads:
                raise ValueError(f"hidden {hidden} does not split over {heads} heads")

    @functools.cached_property
    def grids(self) -> tuple[Sequence[int], ...]:
        """Each searched field's legal values, in ``SEARCHED_FIELDS`` order."""
        return tuple(getattr(self, field) for field in SEARCHED_FIELDS)

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
        layers=range(1, 12 + 1),
        hidden=range(16, 768 + 1, 16),
        heads=(1, 2, 4, 8),
        ffn=range(32, 3072 + 1, 32),
        vocab=range(1000, 50000 + 1, 1000),
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
    for field, grid in zip(SEARCHED_FIELDS, space.grids):
        value = getattr(config, field)
        if value not in grid:
            return Verdict(False, f"{field}={value} not in {grid}")
    return Verdict(True)
