"""gridpose: single-shot 3D hand + 6D object pose recognition on a 3D grid.

Submodules:
    geometry     camera model, grid discretization, cuboid control points
    codec        sparse responsible-cell targets, grid decoding, pruning,
                 confidence law
    rigidpose    Procrustes alignment and the DLT PnP baseline
    autodiff     minimal reverse-mode automatic differentiation on ndarrays
    network      convolutional backbone, multi-task loss, SGD training
    interaction  hand-object feature map + recurrent sequence classifier
    synth        deterministic synthetic scene/sequence generator + renderer
    metrics      PCK / ADD / projection-error / accuracy measures
    pipeline     two-stage training, evaluation reports
    config       run configs, their flat text form and hash

On Linux, importing gridpose turns transparent huge pages off for the
process. numpy advises them for arrays of 4 MiB or more, and whole 2 MiB
pages, at fault time or later from khugepaged, made a run's peak resident
memory follow page alignment and khugepaged's timing.
"""

import ctypes
import sys

__version__ = "0.1.0"
PR_SET_THP_DISABLE = 41  # prctl(2) option; kernels before 3.15 refuse it

if sys.platform.startswith("linux"):
    _prctl = ctypes.CDLL(None).prctl
    _prctl.argtypes, _prctl.restype = [ctypes.c_int] + [ctypes.c_ulong] * 4, ctypes.c_int
    _prctl(PR_SET_THP_DISABLE, 1, 0, 0, 0)
