"""CSIT-free downlink precoding (CIRCLE / R-CIRCLE) link-level simulator.

The transmitter sends every frame through N deterministic slot precoders
built from circulant column permutations of the DFT matrix; each device
cancels all inter-device interference with a matched linear combiner and
estimates its own channel from two pilot slots by a codebook sweep.  The
package also ships full-CSIT benchmarks (MRT, ZF, WMMSE) and a seeded
Monte Carlo harness with a CLI.

The package exports what the CLI, the harness, perfbench and the README
example use of it; everything else stays importable from its module.
"""

from .baselines import mrt, per_device_csit_se, wmmse, zf
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
from .harness import (
    ExperimentConfig,
    load_config_file,
    preset,
    run_experiment,
    summarize,
    write_csv,
)
from .receiver import SINR_CAP, per_device_achieved_se, per_device_max_se
from .transceiver import make_frame, receive, transmit

__version__ = "0.1.0"
