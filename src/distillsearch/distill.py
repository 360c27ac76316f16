"""Knowledge distillation: capture teacher logits, train the student.

The teacher's raw pre-softmax logits on unlabeled sequences are the
distilled knowledge; the student minimizes the temperature-softened
soft cross-entropy

    loss(p, q, T) = -T^2 * sum_c softmax(p/T)_c * log softmax(q/T)_c

averaged over records, written once in :func:`soft_ce`. Gradients flow
to the student logits q only; the teacher stays fixed. The student
trains through :func:`nn.train_loop`, the teacher's loop with this loss
in place of hard-label cross-entropy, and every evaluation (capture,
dataset loss, agreement) runs on :func:`nn.predict_logits`.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .archspace import ArchConfig
from .nn import EncoderModel, InvalidInputError

LDST_VERSION = 1


@dataclass
class LogitRecord:
    token_ids: list[int]
    teacher_logits: np.ndarray


@dataclass
class LogitDataset:
    records: list[LogitRecord]
    num_classes: int

    def __post_init__(self):
        if not self.records:
            raise ValueError("LogitDataset needs at least one record")
        for r in self.records:
            r.teacher_logits = np.asarray(r.teacher_logits, dtype=np.float64)
            if r.teacher_logits.shape != (self.num_classes,):
                raise ValueError("record logits do not match num_classes")

    def __len__(self):
        return len(self.records)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            header = {"version": LDST_VERSION, "num_classes": self.num_classes,
                      "count": len(self.records)}
            fh.write(json.dumps(header) + "\n")
            for r in self.records:
                fh.write(json.dumps({"ids": list(map(int, r.token_ids)),
                                     "logits": [float(x) for x in r.teacher_logits]},
                                    allow_nan=False) + "\n")

    @classmethod
    def load(cls, path) -> "LogitDataset":
        """Read a file written by :meth:`save`; raise ValueError naming the
        file for a malformed header or record, or a wrong record count."""
        def parse(raw):
            header, *rows = map(json.loads, raw.splitlines())
            if len(rows) != header["count"]:
                raise ValueError(f"expected {header['count']} records, got {len(rows)}")
            return cls([LogitRecord(nn.token_ids(rec["ids"]), _numbers(rec["logits"]))
                        for rec in rows], num_classes=header["num_classes"])
        return nn.read_artifact(path, parse)


def _numbers(value) -> list:
    """``value`` if it is a list of finite numbers, as stored logits must be; else
    ValueError. JSON's ``NaN`` and ``Infinity`` parse, and so does ``1e999``, as inf."""
    if not (isinstance(value, list) and all(type(x) in (int, float) for x in value)
            and np.isfinite(np.array(value, dtype=np.float64)).all()):
        raise ValueError(f"logits must be a list of finite numbers, got {value!r:.40}")
    return value


@dataclass(frozen=True)
class DistillParams(nn.TrainParams):
    epochs: int = 20
    temperature: float = 2.0
    vocab_map: dict[int, int] | None = None

    def __post_init__(self):
        super().__post_init__()
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")


def _valid(config: ArchConfig, ids) -> bool:
    try:
        nn.check_inputs(config, np.asarray(ids, dtype=np.int64).reshape(1, -1))
    except InvalidInputError:
        return False
    return True


def capture_teacher_logits(teacher: EncoderModel, unlabeled,
                           strict: bool = True) -> LogitDataset:
    """Query the fixed teacher on every sequence; store raw logits.

    Unless ``strict``, sequences the teacher rejects are skipped."""
    seqs = [list(map(int, ids)) for ids in unlabeled]
    if not strict:
        seqs = [ids for ids in seqs if _valid(teacher.config, ids)]
    logits = nn.predict_logits(teacher, seqs)
    return LogitDataset([LogitRecord(ids, row) for ids, row in zip(seqs, logits)],
                        num_classes=teacher.config.num_classes)


def soft_ce(p, q, temperature: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-record soft cross-entropy of student logits q against teacher
    logits p, and its gradient with respect to q."""
    p = np.asarray(p, dtype=np.float64)
    q = np.asarray(q, dtype=np.float64)
    if p.shape != q.shape:
        raise ValueError("logit vectors must have equal shape")
    t = float(temperature)
    soft_targets = np.exp(nn.log_softmax(p / t))
    log_student = nn.log_softmax(q / t)
    loss = -(t * t) * (soft_targets * log_student).sum(-1)
    return loss, t * (np.exp(log_student) - soft_targets)


def soft_ce_loss(p, q, temperature: float) -> float:
    """Temperature-softened soft cross-entropy between logit vectors."""
    return float(soft_ce(p, q, temperature)[0].mean())


def soft_ce_loss_grad(p, q, temperature: float) -> np.ndarray:
    """d loss / d q for one pair of logit vectors (or a batch)."""
    return soft_ce(p, q, temperature)[1]


def build_vocab_map(corpus, teacher_vocab: int, student_vocab: int) -> dict[int, int]:
    """Frequency-truncating remap: top student_vocab-1 tokens keep dense
    ids 1.., everything else collapses to the unknown id 0."""
    counts = Counter()
    for ids in corpus:
        counts.update(int(i) for i in ids)
    kept = [tok for tok, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
    kept = kept[: student_vocab - 1]
    return {tok: i + 1 for i, tok in enumerate(kept)}


def apply_vocab_map(ids, vocab_map: dict[int, int] | None) -> list[int]:
    if vocab_map is None:
        return list(map(int, ids))
    return [vocab_map.get(int(i), 0) for i in ids]


@dataclass
class DistillTrace:
    epoch_losses: list[float] = field(default_factory=list)
    initial_loss: float = 0.0
    final_loss: float = 0.0


def _inputs(data: LogitDataset, vocab_map) -> tuple[list[list[int]], np.ndarray]:
    """Student ids (mapped once) and the (records, classes) teacher logits."""
    return ([apply_vocab_map(r.token_ids, vocab_map) for r in data.records],
            np.stack([r.teacher_logits for r in data.records]))


def _mean_loss(model: EncoderModel, seqs, targets, temperature: float) -> float:
    return float(soft_ce(targets, nn.predict_logits(model, seqs), temperature)[0].mean())


def dataset_loss(model: EncoderModel, data: LogitDataset, params: DistillParams) -> float:
    """Mean soft cross-entropy of the student over the whole dataset."""
    return _mean_loss(model, *_inputs(data, params.vocab_map), params.temperature)


def distill_train(student_config: ArchConfig, data: LogitDataset,
                  params: DistillParams) -> tuple[EncoderModel, DistillTrace]:
    """Train a fresh student on the captured teacher logits.

    The returned student carries ``params.vocab_map``, so a saved
    checkpoint can map teacher ids on its own.
    """
    rng = np.random.default_rng(params.rng_seed)
    student = nn.init(student_config, rng, params.dtype)
    seqs, targets = _inputs(data, params.vocab_map)
    t = params.temperature

    trace = DistillTrace(initial_loss=_mean_loss(student, seqs, targets, t))
    trace.epoch_losses = nn.train_loop(
        student, rng, seqs, lambda batch, logits: soft_ce(targets[batch], logits, t), params)
    trace.final_loss = _mean_loss(student, seqs, targets, t)
    student.vocab_map = params.vocab_map
    return student, trace


def agreement(student: EncoderModel, references, eval_ids,
              vocab_map: dict[int, int] | None = None) -> float:
    """Fraction of examples where the student argmax matches the reference
    (see :func:`match_rate`)."""
    eval_ids = list(eval_ids)
    references = list(references)
    if len(eval_ids) != len(references):
        raise ValueError("eval set and references differ in length")
    return match_rate(
        nn.predict_logits(student, [apply_vocab_map(ids, vocab_map) for ids in eval_ids]),
        references)


def match_rate(logits: np.ndarray, references) -> float:
    """Fraction of rows of ``logits`` whose argmax matches the reference.

    ``references`` is a sequence of integer labels or of teacher logit
    vectors (argmax is taken per vector), one per row.
    """
    labels = [int(np.argmax(ref)) if np.ndim(ref) > 0 else int(ref) for ref in references]
    if not labels:
        raise ValueError("empty evaluation set")
    preds = logits.argmax(-1)
    return sum(int(p) == label for p, label in zip(preds, labels, strict=True)) / len(labels)
