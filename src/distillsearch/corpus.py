"""Synthetic sequence-classification data and the teacher's loss.

Stands in for a full-scale labeled corpus at desk scale: a controllable
binary rule gives ground-truth labels with an exact re-check oracle.
The default rule labels a sequence positive iff a designated trigger
bigram occurs (two fixed tokens, adjacent, in order). Generated data is
split into disjoint labeled / unlabeled / validation / test parts; the
unlabeled part ships without labels and exists only to query a teacher.

The teacher trains with hard-label cross-entropy through
:func:`nn.train_loop`, the loop the student shares; :func:`accuracy`
runs on :func:`nn.predict_logits`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, asdict
from pathlib import Path

import numpy as np

from . import nn
from .archspace import ArchConfig
from .nn import EncoderModel

RULE_TRIGGER_BIGRAM = "trigger_bigram"


@dataclass(frozen=True)
class SyntheticTaskSpec:
    vocab_size: int = 2000
    min_seq_len: int = 12
    max_seq_len: int = 24
    rule: str = RULE_TRIGGER_BIGRAM
    rule_params: tuple[int, int] = (7, 11)
    n_labeled: int = 4000
    n_unlabeled: int = 4000
    n_val: int = 1000
    n_test: int = 1000
    rng_seed: int = 0

    def __post_init__(self):
        if self.rule != RULE_TRIGGER_BIGRAM:
            raise ValueError(f"unknown rule family {self.rule!r}")
        t1, t2 = self.rule_params
        sizes = (self.vocab_size, self.min_seq_len, self.max_seq_len, self.n_labeled,
                 self.n_unlabeled, self.n_val, self.n_test, self.rng_seed, t1, t2)
        if any(type(value) is not int for value in sizes):
            raise ValueError("spec sizes, seed and trigger tokens must be integers")
        if not (0 < t1 < self.vocab_size and 0 < t2 < self.vocab_size):
            raise ValueError("trigger tokens must lie inside the vocabulary")
        if self.min_seq_len < 2 or self.max_seq_len < self.min_seq_len:
            raise ValueError("need 2 <= min_seq_len <= max_seq_len")


@dataclass
class Example:
    ids: list[int]
    label: int


@dataclass
class Corpus:
    spec: SyntheticTaskSpec
    labeled: list[Example]
    unlabeled: list[list[int]]  # labels erased by construction
    val: list[Example]
    test: list[Example]


def rule_label(spec: SyntheticTaskSpec, ids) -> int:
    """Ground-truth oracle: re-evaluate the class rule on a sequence."""
    t1, t2 = spec.rule_params
    ids = list(ids)
    return int(any(a == t1 and b == t2 for a, b in zip(ids, ids[1:])))


def _random_example(spec: SyntheticTaskSpec, rng, seen, label: int, max_tries=200) -> list[int]:
    """A fresh sequence of the given label: positives get the trigger bigram
    planted at a random position, negatives are redrawn until they lack it."""
    for _ in range(max_tries):
        length = int(rng.integers(spec.min_seq_len, spec.max_seq_len + 1))
        ids = rng.integers(1, spec.vocab_size, size=length).tolist()
        if label:
            pos = int(rng.integers(0, length - 1))
            ids[pos], ids[pos + 1] = spec.rule_params
        if rule_label(spec, ids) == label and tuple(ids) not in seen:
            return ids
    raise RuntimeError(f"could not generate a fresh example with label {label}")


def generate(spec: SyntheticTaskSpec) -> Corpus:
    """Deterministic-by-seed corpus with disjoint, balanced splits."""
    rng = np.random.default_rng(spec.rng_seed)
    seen: set[tuple[int, ...]] = set()

    def make_split(n: int) -> list[Example]:
        examples = []
        for i in range(n):
            label = i % 2  # exact balance, shuffled below
            ids = _random_example(spec, rng, seen, label)
            seen.add(tuple(ids))
            examples.append(Example(ids, label))
        rng.shuffle(examples)
        return examples

    labeled = make_split(spec.n_labeled)
    unlabeled = [ex.ids for ex in make_split(spec.n_unlabeled)]
    val = make_split(spec.n_val)
    test = make_split(spec.n_test)
    for split in (labeled, val, test):
        frac = sum(ex.label for ex in split) / max(len(split), 1)
        if split and not 0.45 <= frac <= 0.55:
            raise RuntimeError(f"split balance {frac:.3f} outside [0.45, 0.55]")
    return Corpus(spec, labeled, unlabeled, val, test)


# ---------------------------------------------------------------------------
# teacher training


TeacherTrainParams = nn.TrainParams


def accuracy(model: EncoderModel, examples: list[Example]) -> float:
    if not examples:
        raise ValueError("empty evaluation set")
    preds = nn.predict_logits(model, [ex.ids for ex in examples]).argmax(-1)
    return sum(int(p) == ex.label for p, ex in zip(preds, examples)) / len(examples)


@dataclass
class TeacherResult:
    model: EncoderModel
    val_accuracy: float
    train_accuracy: float
    epoch_losses: list[float] = field(default_factory=list)


def train_teacher(config: ArchConfig, labeled: list[Example],
                  params: TeacherTrainParams = TeacherTrainParams(),
                  val: list[Example] | None = None) -> TeacherResult:
    """Supervised cross-entropy training of the teacher classifier."""
    if not labeled:
        raise ValueError("labeled split is empty")
    rng = np.random.default_rng(params.rng_seed)
    model = nn.init(config, rng)
    labels = np.array([ex.label for ex in labeled])

    def cross_entropy(batch, logits):
        rows, targets = np.arange(len(batch)), labels[batch]
        probs = nn.softmax(logits)
        per_example = -np.log(np.clip(probs[rows, targets], 1e-300, None))
        probs[rows, targets] -= 1.0
        return per_example, probs

    epoch_losses = nn.train_loop(model, rng, [ex.ids for ex in labeled], cross_entropy, params)
    val_acc = accuracy(model, val) if val else float("nan")
    train_acc = accuracy(model, labeled)
    return TeacherResult(model, val_accuracy=val_acc, train_accuracy=train_acc,
                         epoch_losses=epoch_losses)


# ---------------------------------------------------------------------------
# file formats: JSONL records, spec as a flat JSON document


def save_corpus(corpus: Corpus, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "task_spec.json").write_text(json.dumps(asdict(corpus.spec), indent=2))
    for name, split in (("labeled", corpus.labeled), ("val", corpus.val),
                        ("test", corpus.test)):
        with open(out / f"{name}.jsonl", "w") as fh:
            for ex in split:
                fh.write(json.dumps({"ids": ex.ids, "label": ex.label}) + "\n")
    with open(out / "unlabeled.jsonl", "w") as fh:
        for ids in corpus.unlabeled:
            fh.write(json.dumps({"ids": ids}) + "\n")


def _parse_spec(raw: bytes) -> SyntheticTaskSpec:
    doc = json.loads(raw)
    if odd := set(doc) ^ {f.name for f in fields(SyntheticTaskSpec)}:
        raise ValueError(f"unknown or missing spec keys {sorted(odd)}")
    return SyntheticTaskSpec(**{**doc, "rule_params": tuple(doc["rule_params"])})


def _example(rec: dict) -> Example:
    if type(rec["label"]) is not int or rec["label"] not in (0, 1):
        raise ValueError(f"label must be 0 or 1, got {rec['label']!r:.40}")
    return Example(nn.token_ids(rec["ids"]), rec["label"])


def load_corpus(out_dir) -> Corpus:
    """Read what :func:`save_corpus` wrote; a ValueError names the file of a
    malformed spec or record, or of a split whose length is not the spec's."""
    out = Path(out_dir)
    spec = nn.read_artifact(out / "task_spec.json", _parse_spec)

    def split(name, count, parse):
        def parse_all(raw):
            records = [parse(json.loads(line)) for line in raw.splitlines()]
            if len(records) != count:
                raise ValueError(f"{len(records)} records where the spec says {count}")
            return records
        return nn.read_artifact(out / f"{name}.jsonl", parse_all)

    return Corpus(spec, split("labeled", spec.n_labeled, _example),
                  split("unlabeled", spec.n_unlabeled, lambda rec: nn.token_ids(rec["ids"])),
                  split("val", spec.n_val, _example), split("test", spec.n_test, _example))
