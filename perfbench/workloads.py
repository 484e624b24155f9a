"""Workloads of the fsglab benchmark and the loop that measures them.

Every workload is one process of single-threaded Python driving a closed
loop with one caller: each `step` starts when the previous one returns.
A run of a training workload does, in order:

1. set-up (data, `Model.build`, both trainers, and the convex problem with
   its fast map), timed for `setup_s`; it is repeated SETUP_REPEATS times
   in all, the repetitions spread over the window of step 4;
2. warm-up epochs until the gradient-history FIFO is full (the first l+1
   steps), neither timed nor counted in set-up;
3. a memory pass on a copy of the FSG trainer: the tracemalloc peak of one
   step, and the bytes the slow net keeps for its backward (computed);
4. the timed window: epochs of FSG `train_epoch`, then
   `SteTrainer.train_epoch` on the same batches (both trainers shuffle with
   the same seed), then `evaluate` on a held-out split; interleaved with
   them, calls of the convex-rate traffic (`run_fsg_convex` at the
   criterion-8 size with `rate_fit`, `theorem_bound` and
   `pk_recursion_check`), which run inside every workload as the control
   that no trainer change may move.

A fixed reference kernel (HostProbe) runs around the first set-up, before
the window and after every phase call in it; timings are reported both on
the wall clock and rescaled by the kernel's time at that moment.

Outputs are checked as they are produced; every check is one attempted
operation, and a raised error or a failed check is one failure.
"""

from __future__ import annotations

import copy
import hashlib
import math
import shutil
import tempfile
import time
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from fsglab import convergence
from fsglab import data as fdata
from fsglab.hypernet import slow_backward, slow_forward_cached
from fsglab.model import Model
from fsglab.rng import Rng
from fsglab.trainer import FsgTrainer, LrDecay, OptimizerConfig, SteTrainer, TrainConfig

import tracer as tracing

SETUP_REPEATS = 21
CONVEX_SHARE = 0.15  # share of the window given to the convex-rate phase
TAIL_MIN_BEYOND = 10  # a tail percentile needs this many samples above it
REF_S = 0.015  # time of one HostProbe kernel at the speed normalised metrics are quoted at
REF_PY_S = 0.004  # time of its Python loop at that speed
PK_RESIDUAL_LIMIT = 1e-10  # criterion 9
MIB = 2.0**20

# name -> unit; the end-to-end metrics every workload reports with --trace 0.
# Times are host-normalised (see HostProbe): on a shared host the speed
# swings by up to 1.6x within seconds, and over five seeds the quartile
# spread of the wall-clock step, evaluation and set-up medians reached
# 0.11-0.35 of the median, against 0.02-0.09 once normalised.  The wall-clock
# values are printed too, suffixed `_raw`.  convex_iters_per_s is printed
# but not reported: its few calls per run spread by about 0.2 even when
# normalised, too close to the largest bound allowed (0.25).
END_TO_END = {
    "setup_s": "s",
    "fsg_step_ms_p50": "ms",
    "fsg_step_ms_tail": "ms",
    "ste_step_ms_p50": "ms",
    "ste_step_ms_tail": "ms",
    "train_samples_per_s": "1/s",
    "eval_ms_p50": "ms",
    "peak_step_mib": "MiB",
}


@dataclass(frozen=True)
class ConvexSpec:
    """The criterion-8 convex-rate traffic."""

    dim: int = 10
    components: int = 64
    noise: float = 0.1
    T: int = 10_000
    repeats: int = 3
    C: float = 4.0
    beta: float = 0.5
    slow_noise: float = 0.5
    omega: float = 0.8
    theta: float = 1.25


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    layers: tuple
    data: str  # spirals | idx
    n_train: int  # points per class (spirals) or images (idx)
    n_test: int
    batch_size: int
    fast_hidden: int
    token_dim: int
    state_dim: int
    expand: int
    tail_pct: float
    eval_repeats: int = 1  # evaluate() calls per epoch; pure, so only more samples
    l: int = 6
    noise: float = 0.15
    image_size: int = 16
    classes: int = 10
    convex: ConvexSpec = field(default_factory=ConvexSpec)

    @property
    def min_steps(self) -> int:
        """Timed FSG steps needed for TAIL_MIN_BEYOND samples above tail_pct."""
        return math.ceil(TAIL_MIN_BEYOND / (1.0 - self.tail_pct / 100.0))


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="slow-wide",
            why="64x64 binarized layer at paper dims; slow net ~96% of a step and "
                "its ~570 MiB peak is over 4x the LLC, so the scan is bandwidth bound",
            layers=("dense:2:64", "bias:64", "tanh", "dense:64:64:bin", "tanh",
                    "dense:64:2", "bias:2"),
            data="spirals", n_train=400, n_test=400, batch_size=800,
            fast_hidden=100, token_dim=16, state_dim=8, expand=2, tail_pct=60,
            eval_repeats=4,
        ),
        Workload(
            name="conv-idx",
            why="conv net on IDX images; tensor/model code ~83% of an FSG step and "
                "all of an STE step, slow net ~14%, plus forward-only evaluation",
            layers=("conv2d:1:8:3:pad=1", "bias:8", "relu", "conv2d:8:8:3:pad=1:bin",
                    "bias:8", "relu", "flatten", "dense:2048:10", "bias:10"),
            data="idx", n_train=512, n_test=256, batch_size=64,
            fast_hidden=32, token_dim=8, state_dim=3, expand=1, tail_pct=75,
            eval_repeats=2,
        ),
    )
}


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------


@dataclass
class Metric:
    value: float
    unit: str
    samples: int
    note: str = ""


@dataclass
class Tally:
    """Attempted and failed operations, with a line for each failure."""

    attempted: int = 0
    failed: int = 0
    failures: list = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.fail(what)

    def error(self, what: str, exc: Exception) -> None:
        """An operation raised; its attempt was counted when it started."""
        self.fail(f"{what}: {type(exc).__name__}: {exc}")


def tail(samples, pct: float):
    """(value, samples above it) at the given percentile."""
    value = float(np.percentile(samples, pct))
    return value, int(sum(1 for s in samples if s > value))


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------


@dataclass
class Session:
    spec: Workload
    fsg: FsgTrainer
    ste: SteTrainer
    train: tuple  # (x, y)
    test: tuple
    problem: object
    phi: object
    convex_rng: Rng

    def fingerprint(self) -> str:
        h = hashlib.sha256()
        h.update(self.fsg.params_checksum().encode())
        h.update(self.ste.params_checksum().encode())
        for arr in (*self.train, *self.test, self.problem.centers, self.phi.matrix):
            h.update(np.ascontiguousarray(arr).tobytes())
        return h.hexdigest()


def _train_config(spec: Workload, seed: int) -> TrainConfig:
    return TrainConfig(
        alpha=1.0, beta=0.3, l=spec.l,
        base_optimizer=OptimizerConfig(kind="adam", lr=3e-3), hyper_lr=1e-4,
        batch_size=spec.batch_size, lr_decay=LrDecay(every=0, factor=1.0), seed=seed,
        slow_kind="selective-ssm", fast_kind="mlp", fast_hidden=spec.fast_hidden,
        token_dim=spec.token_dim, state_dim=spec.state_dim, expand=spec.expand,
    )


def _class_images(spec: Workload, count: int, gen: np.random.Generator, templates):
    labels = gen.permutation(np.arange(count) % spec.classes).astype(np.uint8)
    noise = gen.normal(0.0, 40.0, size=(count, spec.image_size, spec.image_size))
    images = np.clip(templates[labels] + noise, 0, 255).astype(np.uint8)
    return images, labels


def _idx_data(spec: Workload, rng: Rng, workdir: Path, tally: Tally):
    """Write class-dependent uint8 images as IDX, read them back, check the trip."""
    gen = np.random.default_rng(rng.u64())
    size = spec.image_size
    templates = 40.0 + 180.0 * (gen.random((spec.classes, size, size)) < 0.35)
    splits = []
    for split, count in (("train", spec.n_train), ("test", spec.n_test)):
        images, labels = _class_images(spec, count, gen, templates)
        img_path, lab_path = workdir / f"{split}-images.idx", workdir / f"{split}-labels.idx"
        fdata.write_idx(img_path, lab_path, images, labels)
        loaded = fdata.load_idx(img_path, lab_path)
        tally.check(np.array_equal(loaded.x[:, 0], images.astype(np.float64) / 255.0)
                    and np.array_equal(loaded.y, labels.astype(np.int64)),
                    f"IDX round trip of the {split} split does not match the images/255")
        splits.append((loaded.x, loaded.y))
    return splits[0], splits[1]


def setup(spec: Workload, seed: int, workdir: Path, tally: Tally) -> Session:
    root = Rng(seed)
    data_rng = root.derive("data")
    if spec.data == "spirals":
        tr = fdata.gen_synthetic("spirals", spec.n_train, spec.noise, data_rng.derive("train"))
        te = fdata.gen_synthetic("spirals", spec.n_test, spec.noise, data_rng.derive("test"))
        train, test = (tr.x, tr.y), (te.x, te.y)
    else:
        train, test = _idx_data(spec, data_rng, workdir, tally)
    cfg = _train_config(spec, root.derive("trainer").u64() >> 33)
    fsg = FsgTrainer(Model.build(spec.layers, root.derive("model")), cfg)
    ste = SteTrainer(Model.build(spec.layers, root.derive("model")), copy.deepcopy(cfg))
    c = spec.convex
    crng = root.derive("convex")
    problem = convergence.make_quadratic_problem(c.dim, c.components, c.noise,
                                                 crng.derive("problem"))
    phi = convergence.make_phi(c.dim, c.omega, c.theta, crng.derive("phi"))
    return Session(spec, fsg, ste, train, test, problem, phi, crng.derive("runs"))


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


class Samples(list):
    """Durations in seconds; `at` holds the midpoint time of each."""

    def __init__(self):
        super().__init__()
        self.at: list[float] = []

    def add(self, t0: float, t1: float) -> None:
        self.append(t1 - t0)
        self.at.append(0.5 * (t0 + t1))

    def clear(self) -> None:
        super().clear()
        self.at.clear()


class HostProbe:
    """Times a fixed reference kernel between the phases of a run.

    The host's speed swings by up to 1.6x within seconds, with other tenants'
    load.  The kernel is benchmark code only (an integer LCG loop with
    `log1p`, small numpy matmuls and a pass over a 32 MiB buffer: Python
    overhead, small numpy calls and memory traffic, as in the workloads),
    so no change to fsglab moves it, and its slowdown at a moment is the
    host's.  `normalised` rescales samples to the speed at which the kernel
    takes REF_S, interpolating the kernel's time at each sample's midpoint.
    The slow state slows pure Python about twice as much as memory traffic,
    so pure-Python samples (set-up, with its generators and initialisers,
    and the convex loop) are rescaled by the kernel's Python loop alone,
    which takes REF_PY_S.
    """

    def __init__(self):
        self.times = Samples()
        self.python = Samples()
        self._buf = np.ones(2**22)
        self._small = np.full((32, 32), 0.5)

    def mark(self) -> None:
        t0 = time.perf_counter()
        x, acc = 1, 0.0
        for _ in range(8000):
            x = (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF
            acc += math.log1p((x >> 11) * 2.0**-53)
        self.python.add(t0, time.perf_counter())
        m = self._small
        for _ in range(150):
            m = np.tanh(m @ self._small * 0.03)
        np.multiply(self._buf, 1.0, out=self._buf)
        acc += float(self._buf.sum()) + float(m[0, 0])
        self.times.add(t0, time.perf_counter())
        if not math.isfinite(acc):
            raise FloatingPointError("host probe kernel gave a non-finite value")

    def normalised(self, samples: Samples, python: bool = False) -> np.ndarray:
        probe, ref_s = (self.python, REF_PY_S) if python else (self.times, REF_S)
        return np.asarray(samples) * (ref_s / np.interp(samples.at, probe.at, probe))


class StepTimer:
    """Times every `step` of one trainer and checks that its loss is finite."""

    def __init__(self, trainer, tally: Tally, label: str):
        self.times = Samples()

        def timed(x, y):
            tally.attempted += 1
            t0 = time.perf_counter()
            loss, info = type(trainer).step(trainer, x, y)  # the class's, traced or not
            self.times.add(t0, time.perf_counter())
            if not math.isfinite(loss):
                tally.fail(f"{label} step {trainer.iteration}: loss {loss}")
            return loss, info

        trainer.step = timed


@dataclass
class TrainStats:
    fsg_s: list = field(default_factory=list)
    ste_s: list = field(default_factory=list)
    eval_s: Samples = field(default_factory=Samples)
    epoch_s: Samples = field(default_factory=Samples)
    epoch_samples: list = field(default_factory=list)
    epochs: int = 0
    last_loss: float = float("nan")


@dataclass
class ConvexStats:
    iterations: int  # per call
    run_s: Samples = field(default_factory=Samples)
    busy_s: float = 0.0  # whole calls, checks included
    max_residual: float = 0.0
    bound_violations: int = 0

    @property
    def calls(self) -> int:
        return len(self.run_s)


def warm_up(s: Session) -> None:
    """Whole epochs until the FSG history FIFO is full."""
    while s.fsg.iteration < s.fsg.cfg.l + 1:
        s.fsg.train_epoch(*s.train)
        s.ste.train_epoch(*s.train)


def _epoch(s: Session, stats: TrainStats, tally: Tally) -> None:
    t0 = time.perf_counter()
    rec = s.fsg.train_epoch(*s.train)
    stats.epoch_s.add(t0, time.perf_counter())
    stats.epoch_samples.append(s.train[0].shape[0])
    stats.last_loss = rec.loss
    s.ste.train_epoch(*s.train)
    for _ in range(s.spec.eval_repeats):
        tally.attempted += 1
        t0 = time.perf_counter()
        ev = s.fsg.evaluate(*s.test)
        stats.eval_s.add(t0, time.perf_counter())
        if not math.isfinite(ev.loss):
            tally.fail(f"evaluate loss {ev.loss}")
    stats.epochs += 1


def _convex_call(s: Session, stats: ConvexStats, tally: Tally) -> None:
    c = s.spec.convex
    k = stats.calls
    tally.attempted += 1
    t0 = time.perf_counter()
    trace = convergence.run_fsg_convex(
        s.problem, C=c.C, beta=c.beta, T=c.T, repeats=c.repeats,
        rng=s.convex_rng.derive(f"call-{k}"), phi=s.phi, slow_noise=c.slow_noise)
    stats.run_s.add(t0, time.perf_counter())
    slope = convergence.rate_fit(trace.ts, trace.gaps)
    bound = convergence.theorem_bound(trace, trace.ts)
    residual = convergence.pk_recursion_check(trace, c.beta)
    stats.busy_s += time.perf_counter() - t0
    stats.max_residual = max(stats.max_residual, residual)
    stats.bound_violations += int(np.sum(trace.gaps > bound))
    if trace.failed or not math.isfinite(slope):
        tally.fail(f"convex call {k}: diverged or no finite rate")
    elif not residual < PK_RESIDUAL_LIMIT:
        tally.fail(f"convex call {k}: pk residual {residual:.3e} >= {PK_RESIDUAL_LIMIT}")


def timed_window(s: Session, tally: Tally, seconds: float, probe: HostProbe,
                 before_timed=None, min_steps: int = 1, epochs: int | None = None,
                 convex_calls: int | None = None, setups: int = 0, setup_once=None):
    """Warm up, then time epochs with convex-rate calls and set-ups interleaved.

    The host's speed drifts over seconds, so every phase samples the whole
    window: a convex call runs whenever the convex phase has had less than
    CONVEX_SHARE of the elapsed time, and the `setups` calls of `setup_once`
    are spread evenly over it.  The window ends once `seconds` have passed,
    every phase has run, and the FSG step count reaches `min_steps`.  With
    `epochs` given, it runs exactly that many epochs and `convex_calls`
    calls instead (the traced replay).  The probe runs before the window and
    after every phase call.
    """
    fsg_timer = StepTimer(s.fsg, tally, "fsg")
    ste_timer = StepTimer(s.ste, tally, "ste")
    train = TrainStats()
    convex = ConvexStats(iterations=s.spec.convex.T * s.spec.convex.repeats)
    done_setups = 0
    try:
        warm_up(s)
        if before_timed is not None:
            before_timed()
        fsg_timer.times.clear()
        ste_timer.times.clear()
        probe.mark()
        if epochs is not None:
            for _ in range(epochs):
                _epoch(s, train, tally)
                probe.mark()
            for _ in range(convex_calls):
                _convex_call(s, convex, tally)
                probe.mark()
        else:
            start = time.perf_counter()
            while True:
                elapsed = time.perf_counter() - start
                if (elapsed >= seconds and train.epochs and convex.calls
                        and done_setups == setups and len(fsg_timer.times) >= min_steps):
                    break
                if done_setups < min(setups, setups * elapsed / seconds):
                    setup_once()
                    done_setups += 1
                elif convex.busy_s < CONVEX_SHARE * elapsed:
                    _convex_call(s, convex, tally)
                else:
                    _epoch(s, train, tally)
                probe.mark()
    except Exception as exc:  # a failure ends the window; the run reports it
        tally.error(f"timed window after {train.epochs} epochs, {convex.calls} convex calls",
                    exc)
    finally:
        del s.fsg.step, s.ste.step
    train.fsg_s, train.ste_s = fsg_timer.times, ste_timer.times
    return train, convex


def _first_batch(s: Session):
    bs = s.spec.batch_size
    return s.train[0][:bs], s.train[1][:bs]


def step_peak_mib(s: Session) -> float:
    """tracemalloc peak of one FSG step, taken on a copy so training is unchanged."""
    probe = copy.deepcopy(s.fsg)
    tracemalloc.start()
    try:
        FsgTrainer.step(probe, *_first_batch(s))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak / MIB


def _slow_args(fsg: FsgTrainer):
    for row, i in enumerate(fsg.bin_indices):
        yield row, fsg.buffers[i].window(), fsg.quant_states[i].w.shape


def slow_working_set_bytes(fsg: FsgTrainer) -> int:
    """Computed bytes the slow-net forward keeps for its backward, all layers."""
    total = 0
    for row, hist, shape in _slow_args(fsg):
        _, cache = slow_forward_cached(row, hist, fsg.bundle, shape, chunk=fsg.cfg.scan_chunk)
        total += sum(v.nbytes for v in cache.values()
                     if isinstance(v, np.ndarray) and v.base is None)  # views excluded
    return total


def slow_peak_mib(fsg: FsgTrainer) -> float:
    """tracemalloc peak of the slow net's forward plus backward, per step."""
    peak = 0
    for row, hist, shape in _slow_args(fsg):
        tracemalloc.start()
        try:
            _, cache = slow_forward_cached(row, hist, fsg.bundle, shape,
                                           chunk=fsg.cfg.scan_chunk)
            slow_backward(row, None, fsg.bundle, shape, np.ones(shape), cache=cache)
            peak += tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak / MIB


# ---------------------------------------------------------------------------
# a run
# ---------------------------------------------------------------------------


@dataclass
class Measured:
    """One untraced (or traced) pass over a workload."""

    setup_s: Samples
    probe: HostProbe
    train: TrainStats | None = None
    convex: ConvexStats | None = None
    peak_mib: float = float("nan")
    working_set_bytes: int = 0
    checksums: tuple = ()
    session: Session | None = None


def measure(spec: Workload, seed: int, seconds: float, tally: Tally, workdir: Path,
            setups: int = SETUP_REPEATS, epochs: int | None = None,
            convex_calls: int | None = None, tracer=None,
            for_end_to_end: bool = True) -> Measured:
    """Set up, warm up, and measure one pass; the tracer (if any) is on while timed.

    The first set-up builds the session that is measured; the other
    `setups - 1` are spread over the timed window.  A pass `for_end_to_end`
    also takes the memory pass and runs until the tail percentile has enough
    samples above it.
    """
    setup_s, prints, probe = Samples(), set(), HostProbe()

    def timed_setup():
        t0 = time.perf_counter()
        session = setup(spec, seed, workdir, tally)
        setup_s.add(t0, time.perf_counter())
        prints.add(session.fingerprint())
        return session

    probe.mark()
    if tracer is not None:
        tracer.active = True
    s = timed_setup()
    if tracer is not None:
        tracer.active = False
    probe.mark()
    out = Measured(setup_s, probe, session=s)

    def before_timed():
        if for_end_to_end:
            out.peak_mib = step_peak_mib(s)
            out.working_set_bytes = slow_working_set_bytes(s.fsg)
        if tracer is not None:
            tracer.active = True

    out.train, out.convex = timed_window(s, tally, seconds, probe, before_timed,
                                         spec.min_steps if for_end_to_end else 1,
                                         epochs, convex_calls, setups - 1, timed_setup)
    if tracer is not None:
        tracer.active = False
    out.checksums = (s.fsg.params_checksum(), s.ste.params_checksum())
    tally.check(len(prints) == 1, "repeated set-up with one seed gave different state")
    return out


def _ms(samples, pct: float, note: str = "") -> Metric:
    return Metric(1e3 * float(np.percentile(samples, pct)), "ms", len(samples),
                  f"p{pct:g}{note}")


def end_to_end(spec: Workload, m: Measured) -> dict:
    """END_TO_END metrics, host-normalised, plus the printed-only ones (the
    same on the wall clock, suffixed `_raw`), or {} when a failure left a
    phase without samples."""
    t = m.train
    if not (t.fsg_s and t.ste_s and t.eval_s and m.convex.calls):
        return {}
    p = f"p{spec.tail_pct:g}"
    values = {}
    for suffix, norm, hn in (("", m.probe.normalised, ", host-normalised"),
                             ("_raw", lambda x, python=False: np.asarray(x), "")):
        values[f"setup_s{suffix}"] = Metric(float(np.median(norm(m.setup_s, python=True))),
                                            "s", len(m.setup_s), "p50" + hn)
        for name, samples in (("fsg_step", t.fsg_s), ("ste_step", t.ste_s)):
            normed = norm(samples)
            value, beyond = tail(normed, spec.tail_pct)
            values[f"{name}_ms_p50{suffix}"] = _ms(normed, 50, hn)
            values[f"{name}_ms_tail{suffix}"] = Metric(
                1e3 * value, "ms", len(samples), f"{p}, {beyond} samples above" + hn)
        values[f"train_samples_per_s{suffix}"] = Metric(
            float(np.median(np.asarray(t.epoch_samples) / norm(t.epoch_s))), "1/s",
            t.epochs, "p50 of per-epoch FSG samples per second" + hn)
        values[f"eval_ms_p50{suffix}"] = _ms(norm(t.eval_s), 50, hn)
        values[f"convex_iters_per_s{suffix}"] = Metric(
            float(np.median(m.convex.iterations / norm(m.convex.run_s, python=True))), "1/s",
            m.convex.calls, f"p50, {m.convex.iterations} iterations per call" + hn)
    values["peak_step_mib"] = Metric(m.peak_mib, "MiB", 1, "tracemalloc, one FSG step")
    values["host_probe_ms"] = _ms(m.probe.times, 50, f"; {REF_S * 1e3:g} ms at the speed "
                                                     "normalised values are quoted at")
    return values


def run_untraced(spec: Workload, seed: int, seconds: float, workdir: Path):
    tally = Tally()
    m = measure(spec, seed, seconds, tally, workdir)
    return m, end_to_end(spec, m), tally


def run_traced(spec: Workload, seed: int, seconds: float, workdir: Path):
    """Untraced pass for half the window, then the same epochs again with spans on."""
    tally = Tally()
    base = measure(spec, seed, seconds / 2, tally, workdir, setups=1, for_end_to_end=False)
    tr = tracing.Tracer()
    tracing.install(tr)
    try:
        traced = measure(spec, seed, seconds / 2, tally, workdir, setups=1,
                         epochs=base.train.epochs, convex_calls=base.convex.calls, tracer=tr,
                         for_end_to_end=False)
    finally:
        tr.uninstall()
    tally.check(traced.checksums == base.checksums,
                "traced and untraced runs of one seed end with different parameters")
    tally.check(traced.train.last_loss == base.train.last_loss,
                "traced and untraced runs of one seed end with different losses")
    layers = tracing.per_layer(tr.stats, base, traced, slow_peak_mib(traced.session.fsg))
    return base, traced, tr, layers, tally


def make_workdir(bench_dir: Path) -> Path:
    out = bench_dir / "out"
    out.mkdir(exist_ok=True)
    return Path(tempfile.mkdtemp(prefix="idx-", dir=out))


def remove_workdir(path: Path) -> None:
    shutil.rmtree(path, ignore_errors=True)
