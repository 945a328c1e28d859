"""Experiment configuration, seeded Monte Carlo orchestration, CSV emission.

Reproducibility notes: every random draw is keyed by a spawn chain on the
experiment seed, (trial,) for frame symbols, (trial, device) for channel
realizations and (trial, device, subcarrier) for receiver noise, so a
trial's results depend only on the config and the trial index, and the
serially run trials give byte-identical CSVs for a fixed seed.  Each trial
derives the seed words of all its keys in one vectorised pass of NumPy's
``SeedSequence`` hash (``seeding``), which gives the streams
``SeedSequence(seed, spawn_key=key)`` gives.  Wall-clock timings are
measured per method but written to the CSV as 0 unless explicitly
requested, keeping the default output deterministic.

Under estimated CSIR, ``circle`` and ``r-circle`` read one shared codebook
sweep per device, and both pick their angles from it before the method
loop.  A method's ``wall_time_s`` therefore excludes the sweep and the
angle picks, as it excludes the transmit/receive synthesis: it covers the
method's spectral-efficiency evaluation.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from typing import Iterable, Iterator

import numpy as np

from . import baselines
from .channel import (
    ArrayGeometry,
    ChannelProfile,
    NoiseModel,
    db_to_linear,
    sample_channel,
)
from .dftcore import build_family, build_precoders, pairwise_diagonals
from .estimation import (
    complexity_psi,
    make_codebook,
    narrowband_search,
    sweep_scores,
    wideband_search,
)
from .receiver import per_device_achieved_se, per_device_max_se
from .seeding import generator, seed_words
from .transceiver import make_frame, receive, transmit

__all__ = [
    "PRESET_NAMES",
    "ExperimentConfig",
    "preset",
    "run_experiment",
    "write_csv",
    "summarize",
    "load_config_file",
]

KNOWN_METHODS = ("circle", "r-circle", "bound", "mrt", "zf", "wmmse")

# Recognized but not implemented: the uplink-pilot CSIT-reconstruction
# benchmark (generalized power iteration on reconstructed channels) needs
# machinery this simulator does not model.
UNAVAILABLE_METHODS = ("wo-csit-feedback",)

PRESET_NAMES = ("fig2", "fig4a", "fig4b", "fig4c", "fig4d", "fig5", "fig6")


@dataclass
class ExperimentConfig:
    """Full parameterization of one Monte Carlo scenario.

    Exactly one of ``snr_db`` and ``p_t_db`` must be set; with ``snr_db``
    the transmit power is derived from the ensemble channel statistics.
    ``n_antennas`` left as None follows the swept device count as K + 2.
    """

    n_devices: int = 30
    n_antennas: int | None = None
    snr_db: float | None = 10.0
    p_t_db: float | None = None
    sigma2_db: float = -10.0
    delta2_db: float = -15.0
    n_nlos: int = 3
    rho: float = 2.0
    q_levels: int = 512
    n_subcarriers: int = 10
    cp_len: int = 4
    carrier_freq_hz: float = 100e9
    bandwidth_hz: float = 10e9
    n_trials: int = 200
    seed: int = 0
    methods: tuple[str, ...] = ("bound", "circle", "r-circle")
    symbol_source: str = "gaussian"
    csir: str = "estimated"
    sweep_param: str | None = None
    sweep_values: tuple | None = None

    def validate(self) -> None:
        """Check the config at every sweep point before any trial runs.

        Each point is the config with the swept field replaced by one sweep
        value, and must pass every check a config without a sweep passes,
        those of the models ``_point_models`` builds included.  A sweep value
        equal (``==``) to an earlier one is rejected: its point would run twice.
        """
        if self.sweep_param is None:
            if self.sweep_values is not None:
                raise ValueError("sweep_values is set but sweep_param is not")
            self._validate_point()
            return
        if self.sweep_param not in _SWEEPABLE:
            raise ValueError(f"cannot sweep field {self.sweep_param!r}")
        if not self.sweep_values:
            raise ValueError("sweep_values must be nonempty when sweeping")
        for i, value in enumerate(self.sweep_values):
            if any(value == earlier for earlier in self.sweep_values[:i]):
                raise ValueError(f"sweep value {self.sweep_param}={value!r} is listed more than once")
            try:
                replace(self, **{self.sweep_param: value})._validate_point()
            except ValueError as exc:
                raise ValueError(f"sweep point {self.sweep_param}={value!r}: {exc}") from None

    def _validate_point(self) -> None:
        for name in sorted(_INT_FIELDS):
            value = getattr(self, name)
            if name == "n_antennas" and value is None:
                continue
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        if (self.snr_db is None) == (self.p_t_db is None):
            raise ValueError("exactly one of snr_db and p_t_db must be set")
        if self.n_trials < 1:
            raise ValueError("n_trials must be at least 1")
        if self.n_devices < 1:
            raise ValueError("n_devices must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be nonnegative")
        if not 0 < self.rho <= 2:  # written so that nan fails too
            raise ValueError("rho must lie in (0, 2]")
        if self.q_levels < 1:
            raise ValueError("q_levels must be at least 1")
        if self.symbol_source not in ("gaussian", "qpsk"):
            raise ValueError(f"unknown symbol_source {self.symbol_source!r}")
        if self.csir not in ("genie", "estimated"):
            raise ValueError(f"unknown csir mode {self.csir!r}")
        if not self.methods:
            raise ValueError("methods must name at least one method")
        for i, method in enumerate(self.methods):
            if method in UNAVAILABLE_METHODS:
                raise NotImplementedError(
                    f"method {method!r} is a recognized benchmark but is not "
                    "implemented: it reconstructs transmitter-side channel "
                    "state from uplink pilots, which is outside the scope of "
                    "this simulator"
                )
            if method not in KNOWN_METHODS:
                raise ValueError(f"unknown method {method!r}")
            if method in self.methods[:i]:
                raise ValueError(f"method {method!r} is named more than once")
        geometry, _, _ = _point_models(self)
        k, n = self.n_devices, geometry.n_antennas
        if n < 3:
            raise ValueError(
                f"n_antennas={n} leaves no symbol slot: a frame carries two "
                "pilots and at least one symbol"
            )
        if {"circle", "r-circle"} & set(self.methods) and k > n - 2:
            raise ValueError(
                f"n_devices={k} exceeds n_antennas-2={n - 2} for the "
                "deterministic-precoder methods"
            )
        if k > n:
            raise ValueError(f"n_devices={k} exceeds n_antennas={n}")


def _point_models(cfg: ExperimentConfig) -> tuple[ArrayGeometry, ChannelProfile, NoiseModel]:
    """The array geometry, fading profile and noise model a sweep point runs with.

    N is ``n_antennas``, or K + 2 when that is None.  Validation and the run
    both take the models from here, so their constructors check the frequency
    plan, the path count and the variances.  A dB setting whose linear power
    is not finite and positive raises ValueError naming its field; with
    ``snr_db`` that includes the transmit power derived from it.
    """
    geometry = ArrayGeometry(
        n_antennas=cfg.n_antennas if cfg.n_antennas is not None else cfg.n_devices + 2,
        carrier_freq_hz=cfg.carrier_freq_hz,
        bandwidth_hz=cfg.bandwidth_hz,
        n_subcarriers=cfg.n_subcarriers,
        cp_len=cfg.cp_len,
    )
    sigma2 = _linear_power("sigma2_db", cfg.sigma2_db)
    profile = ChannelProfile(
        los_var=1.0,
        nlos_var=_linear_power("delta2_db", cfg.delta2_db),
        n_nlos=cfg.n_nlos,
        angular_range=cfg.rho * math.pi,
    )
    if cfg.p_t_db is not None:
        p_t = _linear_power("p_t_db", cfg.p_t_db)
    else:
        # ensemble statistics: E||h||^2/N is the mean per-antenna gain
        p_t = _linear_power("snr_db", cfg.snr_db) * sigma2 / profile.mean_channel_gain
        if not 0 < p_t < math.inf:
            raise ValueError(f"snr_db={cfg.snr_db!r} gives a transmit power of {p_t!r}, "
                             "not a finite positive one")
    return geometry, profile, NoiseModel(variance=sigma2, tx_power=p_t)


def _linear_power(name: str, db: float) -> float:
    """``db_to_linear(db)``, or ValueError naming ``name`` if not finite and positive."""
    try:
        value = db_to_linear(db)
    except OverflowError:
        value = math.inf
    if not 0 < value < math.inf:
        raise ValueError(f"{name}={db!r} dB is {value!r} in linear scale, "
                         "not a finite positive power")
    return value


_SWEEPABLE = ("n_devices", "snr_db", "delta2_db", "p_t_db", "q_levels", "rho")


@dataclass(frozen=True)
class TrialResult:
    """Per-trial, per-method outcome."""

    trial_index: int
    method: str
    sweep_param: str | None
    sweep_value: float | int | None
    sum_se_bits_per_use: float
    per_device_se: np.ndarray
    q_star: tuple[int, ...]
    psi: int
    wall_time_s: float
    # per-subcarrier solver outcomes of an iterative method (wmmse), empty
    # for the others; reported by the CLI, never written to the CSV
    iterations: tuple[int, ...] = ()
    converged: tuple[bool, ...] = ()


def preset(name: str) -> ExperimentConfig:
    """Named scenario presets mirroring the reference experiments."""
    if name == "fig2":
        return ExperimentConfig(
            n_devices=30,
            n_antennas=32,
            snr_db=None,
            p_t_db=0.0,
            sigma2_db=-10.0,
            n_nlos=3,
            rho=2.0,
            n_subcarriers=1,
            cp_len=0,
            bandwidth_hz=0.0,
            csir="genie",
            methods=("bound", "circle"),
            sweep_param="delta2_db",
            sweep_values=(-40.0, -30.0, -20.0, -10.0, -5.0),
        )
    if name in ("fig4a", "fig4b", "fig4c", "fig4d"):
        rho = {"fig4a": 1 / 32, "fig4b": 1 / 8, "fig4c": 1 / 2, "fig4d": 2.0}[name]
        return ExperimentConfig(
            rho=rho,
            methods=("bound", "circle", "r-circle"),
            sweep_param="n_devices",
            sweep_values=(10, 20, 30),
        )
    if name == "fig5":
        return ExperimentConfig(
            rho=2.0,
            methods=("bound", "r-circle", "wmmse", "zf", "mrt"),
            sweep_param="n_devices",
            sweep_values=(10, 20, 30),
        )
    if name == "fig6":
        return ExperimentConfig(
            n_devices=30,
            rho=2.0,
            methods=("bound", "r-circle", "wmmse", "zf", "mrt"),
            sweep_param="snr_db",
            sweep_values=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        )
    raise ValueError(f"unknown preset {name!r}; known presets: {', '.join(PRESET_NAMES)}")


class _SweepContext:
    """Everything shared by the trials of one sweep point."""

    def __init__(self, config: ExperimentConfig, sweep_value) -> None:
        cfg = config
        if config.sweep_param is not None:
            cfg = replace(config, **{config.sweep_param: sweep_value})
        self.config = cfg
        self.sweep_param = config.sweep_param
        self.sweep_value = sweep_value

        self.k_devices = cfg.n_devices
        self.geometry, self.profile, self.noise = _point_models(cfg)
        self.n = self.geometry.n_antennas

        self.family = build_family(self.n)
        self.precoders = build_precoders(self.family)
        self.diagonals = pairwise_diagonals(self.family)
        self.codebook = make_codebook(cfg.q_levels, 0.0, cfg.rho * math.pi)
        self.vectors = self.codebook.tables(self.geometry)  # (M, N, D)
        self.psi = complexity_psi(self.n, cfg.n_subcarriers, cfg.q_levels)

    def run_trial(self, trial: int) -> list[TrialResult]:
        cfg = self.config
        mm = cfg.n_subcarriers
        k_dev = self.k_devices
        estimated = cfg.csir == "estimated" and bool({"circle", "r-circle"} & set(cfg.methods))

        # seed words of the keys (trial,), (trial, k) and, for the received
        # noise, (trial, k, m), all derived in one pass
        keys = [(trial,)] + [(trial, k) for k in range(1, k_dev + 1)]
        if estimated:
            keys += [(trial, k, m) for k in range(1, k_dev + 1) for m in range(1, mm + 1)]
        words = seed_words(cfg.seed, keys)

        channels = [
            sample_channel(self.geometry, k, generator(words[k]), self.profile)
            for k in range(1, k_dev + 1)
        ]
        h_true = np.stack([ch.h for ch in channels])  # (K, M, N)

        rng_trial = generator(words[0])
        frames = [make_frame(self.n, cfg.symbol_source, rng_trial) for _ in range(mm)]

        estimates = {}
        if estimated:
            xs = [transmit(self.precoders, frames[m0]) for m0 in range(mm)]
            noise_words = words[1 + k_dev :].reshape(k_dev, mm, 4)
            blocks = [
                [
                    receive(channels[k0], xs[m0], self.noise, generator(noise_words[k0, m0]), m0 + 1)
                    for m0 in range(mm)
                ]
                for k0 in range(k_dev)
            ]
            estimates = self._estimate(blocks, frames)

        results = []
        for method in cfg.methods:
            t0 = time.perf_counter()
            per_dev, q_star, psi, solves = self._run_method(method, h_true, estimates.get(method))
            wall = time.perf_counter() - t0
            results.append(
                TrialResult(
                    trial_index=trial,
                    method=method,
                    sweep_param=self.sweep_param,
                    sweep_value=self.sweep_value,
                    sum_se_bits_per_use=float(np.sum(per_dev)),
                    per_device_se=per_dev,
                    q_star=q_star,
                    psi=psi,
                    wall_time_s=wall,
                    iterations=tuple(p.iterations for p in solves),
                    converged=tuple(p.converged for p in solves),
                )
            )
        return results

    def _run_method(self, method, h_true, estimate):
        """Per-device SE, ``q_star``, ``psi`` and, for wmmse, its precoders."""
        cfg = self.config
        if method == "bound":
            per_dev = per_device_max_se(h_true, self.noise, self.geometry)
            return per_dev, (), 0, ()

        if method in ("circle", "r-circle"):
            if cfg.csir == "genie":
                per_dev = per_device_achieved_se(
                    h_true, h_true, self.family, self.noise, self.geometry, self.diagonals
                )
                return per_dev, (), 0, ()
            h_hat, q_star = estimate
            per_dev = per_device_achieved_se(
                h_hat, h_true, self.family, self.noise, self.geometry, self.diagonals
            )
            return per_dev, q_star, self.psi, ()

        # full-CSIT benchmarks, one precoder per subcarrier
        precoders = []
        for m0 in range(cfg.n_subcarriers):
            h_m = h_true[:, m0, :]
            if method == "mrt":
                precoders.append(baselines.mrt(h_m))
            elif method == "zf":
                precoders.append(baselines.zf(h_m))
            elif method == "wmmse":
                precoders.append(baselines.wmmse(h_m, self.noise))
            else:
                raise ValueError(f"unknown method {method!r}")
        per_dev = baselines.per_device_csit_se(precoders, h_true, self.noise, self.geometry)
        return per_dev, (), 0, precoders if method == "wmmse" else ()

    def _estimate(self, blocks, frames):
        """Channel estimates of the estimated-CSIR methods among the config's.

        One codebook sweep serves both: ``circle`` picks an angle per
        subcarrier from it, ``r-circle`` one angle from its subcarrier mean.
        The sweep scores each distinct sine once, for a few devices at a
        time: as many as make about 2*M*Q scored candidates.  Returns
        {method: (h_hat (K, M, N), q_star)}.
        """
        cfg = self.config
        mm = cfg.n_subcarriers
        pilots = np.array([(f.pilot1, f.pilot2) for f in frames])
        methods = [m for m in ("circle", "r-circle") if m in cfg.methods]
        h_hat = {m: np.empty((self.k_devices, mm, self.n), dtype=complex) for m in methods}
        q_star: dict[str, list[int]] = {m: [] for m in methods}
        chunk = max(1, 2 * cfg.q_levels // self.codebook.distinct.size)
        for c0 in range(0, self.k_devices, chunk):
            devices = range(c0, min(c0 + chunk, self.k_devices))
            ys = np.array([[b.y for b in blocks[k0]] for k0 in devices])
            chunk_scores, chunk_alpha_conj = sweep_scores(
                ys, self.family, self.vectors, pilots, self.noise
            )
            for k0, scores, alpha_conj in zip(devices, chunk_scores, chunk_alpha_conj):
                if "circle" in methods:
                    for m0 in range(mm):
                        res = narrowband_search(
                            blocks[k0][m0], self.family, self.codebook, self.geometry,
                            pilots[m0], self.noise, vectors=self.vectors[m0],
                            sweep=(scores[m0], alpha_conj[m0]),
                        )
                        h_hat["circle"][k0, m0] = res.h_hat[0]
                        q_star["circle"].append(res.q_star)
                if "r-circle" in methods:
                    res = wideband_search(
                        blocks[k0], self.family, self.codebook, self.geometry,
                        pilots, self.noise, vectors=self.vectors,
                        sweep=(scores, alpha_conj),
                    )
                    h_hat["r-circle"][k0] = res.h_hat
                    q_star["r-circle"].append(res.q_star)
            # release this chunk's sweep before the next one is scored
            del chunk_scores, chunk_alpha_conj, scores, alpha_conj
        return {m: (h_hat[m], tuple(q_star[m])) for m in methods}


def run_experiment(config: ExperimentConfig) -> Iterator[TrialResult]:
    """Run all sweep points and trials serially, yielding results in trial order.

    A trial's rows depend only on the config and the trial index, so the
    trials of a point could run in any order or be split across workers.
    """
    config.validate()
    for sweep_value in config.sweep_values or (None,):
        ctx = _SweepContext(config, sweep_value)
        for trial in range(ctx.config.n_trials):
            yield from ctx.run_trial(trial)


def write_csv(results: Iterable[TrialResult], path, timing: bool = False) -> None:
    """Write one row per (trial, method) with LF endings.

    Floats carry 12 significant digits.  The wall_time_s column is written
    as 0 unless ``timing`` is set, so default output is byte-identical for
    a fixed seed.
    """
    try:
        with open(path, "w", newline="\n") as fh:
            fh.write("trial,method,sweep_value,sum_se,psi,wall_time_s\n")
            for res in results:
                sweep = "" if res.sweep_value is None else _fmt(res.sweep_value)
                wall = _fmt(res.wall_time_s) if timing else "0"
                fh.write(
                    f"{res.trial_index},{res.method},{sweep},"
                    f"{_fmt(res.sum_se_bits_per_use)},{res.psi},{wall}\n"
                )
    except OSError as exc:
        raise OSError(f"cannot write results to {path!r}: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.12g}"


def summarize(results: Iterable[TrialResult]) -> list[dict]:
    """Mean and standard error of the sum SE per (method, sweep value)."""
    buckets: dict[tuple, list[float]] = {}
    for res in results:
        buckets.setdefault((res.method, res.sweep_value), []).append(
            res.sum_se_bits_per_use
        )
    out = []
    for (method, sweep_value), values in buckets.items():
        arr = np.asarray(values)
        stderr = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
        out.append(
            {
                "method": method,
                "sweep_value": sweep_value,
                "n_trials": len(arr),
                "mean_sum_se": float(arr.mean()),
                "stderr_sum_se": stderr,
            }
        )
    return out


_STR_FIELDS = {"symbol_source", "csir", "sweep_param"}
# the fields whose None has a meaning: follow K + 2, the other power spec, no sweep
_OPTIONAL_FIELDS = {"n_antennas", "snr_db", "p_t_db", "sweep_param", "sweep_values"}
_INT_FIELDS = {
    "n_devices", "n_antennas", "n_nlos", "q_levels", "n_subcarriers",
    "cp_len", "n_trials", "seed",
}


def load_config_file(path) -> ExperimentConfig:
    """Parse a ``key = value`` config file mirroring ExperimentConfig fields.

    Lists (methods, sweep_values) are comma separated; ``#`` starts a
    comment; the literal ``none`` clears an optional field (n_antennas,
    snr_db, p_t_db, sweep_param, sweep_values).  A value that does not parse
    for its key raises ValueError naming the file, line and key; so does a
    key set twice, naming both lines.
    """
    values: dict = {}
    lines: dict[str, int] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, _, text = line.partition("=")
            key = key.strip()
            text = text.strip()
            if key not in ExperimentConfig.__dataclass_fields__:
                raise ValueError(f"{path}:{lineno}: unknown config key {key!r}")
            if key in lines:
                raise ValueError(f"{path}:{lineno}: {key}: already set on line {lines[key]}")
            lines[key] = lineno
            try:
                values[key] = _parse_value(key, text)
            except ValueError as exc:
                raise ValueError(f"{path}:{lineno}: {key}: {exc}") from None
    return ExperimentConfig(**values)


def _parse_value(key: str, text: str):
    if text.lower() == "none":
        if key not in _OPTIONAL_FIELDS:
            raise ValueError("none is accepted only for " + ", ".join(sorted(_OPTIONAL_FIELDS)))
        return None
    if key == "methods":
        methods = tuple(part.strip() for part in text.split(",") if part.strip())
        if not methods:
            raise ValueError("needs at least one method")
        return methods
    if key == "sweep_values":
        parts = [part.strip() for part in text.split(",") if part.strip()]
        return tuple(_parse_number(p) for p in parts)
    if key in _STR_FIELDS:
        return text
    if key in _INT_FIELDS:
        return int(text)
    return float(text)


def _parse_number(text: str):
    try:
        return int(text)
    except ValueError:
        return float(text)
