"""oddmsim: delay-Doppler multicarrier link simulator and analysis toolkit."""

from .modem import (
    Constellation,
    DDGrid,
    ModemParams,
    TimeSequence,
    dd_to_time,
    make_constellation,
    time_to_dd,
)
from .channel import (
    ChannelProfile,
    DDPath,
    DiscreteChannel,
    apply_channel,
    eva_profile,
    sample_channel,
)
from .pilot import (
    EstimatedChannel,
    data_cell_count,
    embed_pilot,
    estimate_channel,
    gains_from_estimate,
    guard_rows,
    perturb_channel,
    pilot_amplitude_for_snr,
)
from .detectors import (
    DetectionResult,
    DetectorConfig,
    run_detector,
)

__version__ = "0.1.0"
