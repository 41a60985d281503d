"""Model profiler: the reproduction's substitute for TensorFlow's TFProf.

The paper derives each CNN's complexity (GFLOPs per training image) from
the built-in TensorFlow profiler and uses it as the key feature ``Cm`` of
its regression models.  Here the same quantity is computed analytically
from the :class:`~repro.workloads.graph.ModelGraph` layer descriptions.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.workloads.checkpoints import CheckpointFiles, checkpoint_files_for
from repro.workloads.graph import ModelGraph


@dataclass(frozen=True)
class ModelProfile:
    """Profiling results for a single model.

    Attributes:
        name: Model name.
        family: Model family name.
        gflops: Training complexity in GFLOPs per image (feature ``Cm``).
        params: Number of trainable parameters.
        num_tensors: Number of trainable tensors.
        num_layers: Number of layer descriptors.
        checkpoint: Checkpoint file sizes produced when saving the model.
    """

    name: str
    family: str
    gflops: float
    params: int
    num_tensors: int
    num_layers: int
    checkpoint: CheckpointFiles

    @property
    def parameter_bytes(self) -> int:
        """Raw float32 parameter size in bytes (gradient payload per step)."""
        return self.params * 4


def profile_model(graph: ModelGraph) -> ModelProfile:
    """Profile a model graph, mirroring what TFProf reports in the paper.

    Args:
        graph: The model graph to profile.

    Returns:
        A :class:`ModelProfile` with complexity, parameter, and checkpoint
        statistics.
    """
    return ModelProfile(
        name=graph.name,
        family=graph.family,
        gflops=graph.gflops,
        params=graph.params,
        num_tensors=graph.num_tensors,
        num_layers=graph.num_layers,
        checkpoint=checkpoint_files_for(graph),
    )
