"""Knowledge distillation: capture teacher logits, train the student.

The teacher's raw pre-softmax logits on unlabeled sequences are the
distilled knowledge; the student minimizes the temperature-softened
soft cross-entropy

    loss(p, q, T) = -T^2 * sum_c softmax(p/T)_c * log softmax(q/T)_c

averaged over records: :func:`nn.soft_ce`, the teacher's own loss, with the
softened teacher rows softmax(p/T) in place of one-hot labels.
:func:`distill_train` softens them once per run. Gradients flow to the
student logits q only; the teacher stays fixed. The student trains through
:func:`nn.train_loop`, the teacher's loop, and every evaluation (capture and
the student's losses) runs on :func:`nn.predict_logits`. A student built with
the map of :func:`build_vocab_map` reads teacher ids; no caller maps an id.
"""

from __future__ import annotations

import itertools
import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .archspace import ArchConfig
from .nn import EncoderModel, InvalidInputError

LDST_VERSION = 1


@dataclass
class LogitDataset:
    """The teacher's raw logits on unlabeled sequences: ``logits[i]`` is its
    (float64) output on ``seqs[i]``, one row per sequence."""

    seqs: list[list[int]]
    logits: np.ndarray

    def __post_init__(self):
        if not self.seqs:
            raise ValueError("LogitDataset needs at least one record")
        self.logits = np.asarray(self.logits, dtype=np.float64)
        if self.logits.ndim != 2 or len(self.logits) != len(self.seqs):
            raise ValueError("logits need one row per sequence")

    @property
    def num_classes(self) -> int:
        return self.logits.shape[1]

    def __len__(self):
        return len(self.seqs)

    def save(self, path) -> None:
        """Write the dataset to ``path`` in one step, a header line and a record a line."""
        header = {"version": LDST_VERSION, "num_classes": self.num_classes,
                  "count": len(self.seqs)}
        records = ({"ids": list(map(int, ids)), "logits": row}
                   for ids, row in zip(self.seqs, self.logits.tolist()))
        nn.write_artifact(path, (json.dumps(doc, allow_nan=False).encode() + b"\n"
                                 for doc in itertools.chain([header], records)))

    @classmethod
    def load(cls, path) -> "LogitDataset":
        """Read a file written by :meth:`save`; raise ValueError naming the
        file for a header of another version, a malformed header or record,
        or a wrong record count."""
        def parse(fh):
            header, *rows = map(json.loads, fh.read().splitlines())
            version, num_classes = header["version"], header["num_classes"]
            if type(version) is not int or version != LDST_VERSION:
                raise ValueError(f"version {version!r:.40}, expected {LDST_VERSION}")
            if type(num_classes) is not int or num_classes < 1:
                raise ValueError(f"num_classes must be a positive integer, "
                                 f"got {num_classes!r:.40}")
            if len(rows) != header["count"]:
                raise ValueError(f"expected {header['count']} records, got {len(rows)}")
            return cls([nn.token_ids(rec["ids"]) for rec in rows],
                       [_logits(rec["logits"], num_classes) for rec in rows])
        return nn.read_artifact(path, parse)


def _logits(value, num_classes: int) -> list:
    """``value`` if it is a list of ``num_classes`` finite numbers, as a stored row
    must be; else ValueError. JSON's ``NaN`` and ``Infinity`` parse, and so does
    ``1e999``, as inf."""
    if not (isinstance(value, list) and all(type(x) in (int, float) for x in value)
            and np.isfinite(np.array(value, dtype=np.float64)).all()):
        raise ValueError(f"logits must be a list of finite numbers, got {value!r:.40}")
    if len(value) != num_classes:
        raise ValueError(f"a record holds {len(value)} logits, the header says {num_classes}")
    return value


@dataclass(frozen=True)
class DistillParams(nn.TrainParams):
    epochs: int = 20
    temperature: float = 2.0

    def __post_init__(self):
        super().__post_init__()
        if not 0 < self.temperature < np.inf:
            raise ValueError(f"temperature must be positive and finite, got {self.temperature!r}")


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
    return LogitDataset(seqs, nn.predict_logits(teacher, seqs))


def build_vocab_map(corpus, student_vocab: int, teacher_vocab: int) -> dict[int, int] | None:
    """Frequency-truncating remap: top student_vocab-1 tokens keep dense
    ids 1.., everything else collapses to the unknown id 0. None when the
    student's vocab is not below the teacher's: it reads the teacher's ids."""
    if student_vocab >= teacher_vocab:
        return None
    counts = Counter()
    for ids in corpus:
        counts.update(int(i) for i in ids)
    kept = [tok for tok, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))]
    kept = kept[: student_vocab - 1]
    return {tok: i + 1 for i, tok in enumerate(kept)}


@dataclass
class DistillTrace:
    epoch_losses: list[float] = field(default_factory=list)
    initial_loss: float = 0.0
    final_loss: float = 0.0


def _mean_loss(model: EncoderModel, seqs, targets, temperature: float) -> float:
    return float(nn.soft_ce(targets, nn.predict_logits(model, seqs), temperature)[0].mean())


def distill_train(student_config: ArchConfig, data: LogitDataset, params: DistillParams,
                  vocab_map: dict[int, int] | None = None) -> tuple[EncoderModel, DistillTrace]:
    """Train a fresh student, built with ``vocab_map``, on the captured teacher
    logits; the student and a checkpoint of it read teacher ids."""
    rng = np.random.default_rng(params.rng_seed)
    student = nn.init(student_config, rng, params.dtype, vocab_map)
    t = params.temperature
    targets = np.exp(nn.log_softmax(data.logits / t))

    trace = DistillTrace(initial_loss=_mean_loss(student, data.seqs, targets, t))
    trace.epoch_losses = nn.train_loop(
        student, rng, data.seqs, lambda batch, logits: nn.soft_ce(targets[batch], logits, t),
        params)
    trace.final_loss = _mean_loss(student, data.seqs, targets, t)
    return student, trace
