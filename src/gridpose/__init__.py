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
"""

__version__ = "0.1.0"
