"""The three workloads, each one sweep point of a public preset.

Every workload runs single-threaded (``run_experiment``'s default) in its own
process, so the peak RSS a run reports is that workload's.

``BENCHMARK.json`` gates the first two.  massive-genie is memory-bound, and
its trial rate and set-up time moved by more than the largest allowed bound
(0.25) between sets of runs of the same code, with the host's memory
contention; it stays runnable for its traced per-layer figures (dftcore at
N = 130).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from circle_mimo.harness import ExperimentConfig, preset


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    base: ExperimentConfig
    reference_trials: int  # trials at the reference seed compared with reference.json
    se_trials: int  # leading trials whose mean sum-SE a run reports
    primary: str  # the method whose mean sum-SE is gated as sum_se.primary
    setup_probes: int  # set-up probes per run; more where set-up is short next to trial jitter

    def config(self, seed: int, n_trials: int, methods: tuple[str, ...] | None = None) -> ExperimentConfig:
        cfg = replace(self.base, seed=seed, n_trials=n_trials)
        return cfg if methods is None else replace(cfg, methods=methods)


def _point(name: str, **fields) -> ExperimentConfig:
    return replace(preset(name), sweep_param=None, sweep_values=None, **fields)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="wideband-estimate",
            why="fig4d point K=30 N=32 M=10 Q=512, estimated CSIR: the receiver codebook "
                "sweep dominates each trial and no CSIT baseline runs",
            base=_point("fig4d", n_devices=30),
            reference_trials=3,
            se_trials=60,
            primary="r-circle",
            setup_probes=32,
        ),
        Workload(
            name="csit-benchmarks",
            why="fig5 point K=30 at one subcarrier: WMMSE is ~97% of a trial, so baselines "
                "changes show here and estimation changes should not",
            base=_point("fig5", n_devices=30, n_subcarriers=1, cp_len=0, bandwidth_hz=0.0),
            reference_trials=3,
            se_trials=30,
            primary="wmmse",
            setup_probes=32,
        ),
        Workload(
            name="massive-genie",
            why="N=130 K=128 M=1, genie CSIR: the N^3 dftcore tensors dominate set-up and "
                "memory; bypasses estimation, transmit/receive and the baselines",
            base=_point("fig2", n_devices=128, n_antennas=130, delta2_db=-20.0),
            reference_trials=5,
            se_trials=200,
            primary="circle",
            setup_probes=8,
        ),
    )
}
