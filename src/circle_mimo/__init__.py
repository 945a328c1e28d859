"""CSIT-free downlink precoding (CIRCLE / R-CIRCLE) link-level simulator.

The transmitter sends every frame through N deterministic slot precoders
built from circulant column permutations of the DFT matrix; each device
cancels all inter-device interference with a matched linear combiner and
estimates its own channel from two pilot slots by a codebook sweep.  The
package also ships full-CSIT benchmarks (MRT, ZF, WMMSE) and a seeded
Monte Carlo harness with a CLI.
"""

from .baselines import (
    CsitPrecoder,
    SingularChannelError,
    csit_sum_se,
    mrt,
    per_device_csit_se,
    wmmse,
    zf,
)
from .channel import (
    ArrayGeometry,
    ChannelProfile,
    ChannelRealization,
    NoiseModel,
    array_response,
    db_to_linear,
    sample_channel,
    snr_db,
)
from .dftcore import (
    CirculantIndex,
    DftMatrix,
    PermutedDftFamily,
    PrecoderSet,
    build_circulant_index,
    build_dft,
    build_family,
    build_precoders,
    pairwise_diagonals,
    pairwise_product,
)
from .estimation import (
    Codebook,
    EstimationResult,
    complexity_psi,
    estimate_gain,
    make_codebook,
    narrowband_search,
    score_candidate,
    sweep_scores,
    wideband_search,
)
from .harness import (
    ExperimentConfig,
    TrialResult,
    load_config_file,
    preset,
    run_experiment,
    summarize,
    write_csv,
)
from .receiver import (
    SINR_CAP,
    CombinerOutput,
    DegenerateChannelError,
    SinrReport,
    achieved_sinr,
    combine,
    decompose_combined,
    desired_gain,
    estimated_sinr,
    exact_sinr,
    interference_gain,
    inverse_channel,
    per_device_achieved_se,
    per_device_max_se,
    se_bits,
    sinr_bound,
    sum_se_achieved,
    sum_se_max,
)
from .transceiver import (
    Frame,
    QPSK_POINTS,
    ReceivedBlock,
    detect_qpsk,
    make_frame,
    receive,
    transmit,
)

__version__ = "0.1.0"
