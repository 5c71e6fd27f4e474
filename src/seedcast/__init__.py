"""seedcast: entropy-guided dual-path multivariate forecasting, desk scale."""

import os as _os

# Honor the thread cap before numpy is first imported anywhere below.
_threads = _os.environ.get("SEED_NUM_THREADS")
if _threads:
    for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                 "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        _os.environ.setdefault(_var, _threads)


def _keep_freed_pages():
    """Keep freed heap pages in the process, so each training step reuses the last one's.

    glibc otherwise trims the heap top and maps large arrays afresh, so every
    step would fault its tape back in. 32 MiB is glibc's own ceiling for its
    dynamic mmap threshold, which setting any parameter switches off. Other
    C libraries keep their defaults.
    """
    try:
        libc = _os.confstr("CS_GNU_LIBC_VERSION") or ""
    except (AttributeError, ValueError, OSError):  # no confstr, or no such name
        libc = ""
    if not libc.startswith("glibc"):
        return
    import ctypes

    mallopt = ctypes.CDLL(None).mallopt
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    m_trim_threshold, m_mmap_threshold = -1, -3  # <malloc.h>
    mallopt(m_trim_threshold, -1)  # never trim the heap
    mallopt(m_mmap_threshold, 32 << 20)


_keep_freed_pages()

from .errors import (  # noqa: E402
    ConfigError,
    DataError,
    DegenerateInputError,
    DivergenceError,
    InputError,
    NumericError,
    SeedcastError,
    ShapeError,
)
from .tensor import Tensor, no_grad  # noqa: E402
from .spectral import (  # noqa: E402
    SyntheticSpec,
    acf_entropy_study,
    autocorrelation,
    generate_synthetic,
    spectral_entropy,
)
from .model import ModelConfig, SeedModel, apply_variant  # noqa: E402
from .training import (  # noqa: E402
    Adam,
    MetricsReport,
    TrainConfig,
    evaluate,
    loss_pred,
    loss_spen,
    total_loss,
    train,
)
from .data import Dataset, load_csv, make_splits, split  # noqa: E402

__version__ = "0.1.0"

__all__ = [
    "Adam", "ConfigError", "DataError", "Dataset",
    "DegenerateInputError", "DivergenceError", "InputError",
    "MetricsReport", "ModelConfig", "NumericError", "SeedModel",
    "SeedcastError", "ShapeError", "SyntheticSpec", "Tensor", "TrainConfig",
    "acf_entropy_study", "apply_variant", "autocorrelation", "evaluate",
    "generate_synthetic", "load_csv",
    "loss_pred", "loss_spen", "make_splits", "no_grad", "spectral_entropy",
    "split", "total_loss", "train",
]
