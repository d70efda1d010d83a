"""Model set-up and reference decisions for the serving benchmark.

The served model is trained exactly the way ``benchmarks/_bench_utils``
trains its ``("vgg", dataset, "per_timestep")`` experiment: same synthetic
datasets, split, seeds, epochs and learning rate.  The recipe is copied here
rather than imported so that edits to the pytest bench harness cannot move
this benchmark's baseline.  None of it depends on the workload seed: only
the traffic does.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Dict

import numpy as np

from repro.core import DynamicTimestepInference, EntropyExitPolicy, calibrate_threshold
from repro.data import (
    ArrayDataset,
    DataLoader,
    SyntheticDVSConfig,
    SyntheticImageConfig,
    make_dvs_like,
    make_synthetic_images,
    train_test_split,
)
from repro.imc import IMCChip
from repro.snn import EventFrameEncoder, spiking_vgg
from repro.training import Trainer, TrainingConfig, collect_cumulative_logits
from repro.utils import seed_everything

IMAGE_SIZE = 10
BATCH_WIDTH = 8
QUEUE_CAPACITY = 64

DATASETS = {
    "cifar10": dict(
        timesteps=4,
        epochs=8,
        build=lambda: make_synthetic_images(
            SyntheticImageConfig(
                num_classes=10, num_samples=420, image_size=IMAGE_SIZE,
                easy_fraction=0.65, seed=7, name="cifar10-like",
            )
        ),
    ),
    "cifar10dvs": dict(
        timesteps=6,
        epochs=12,
        build=lambda: make_dvs_like(
            SyntheticDVSConfig(
                num_classes=8, num_samples=300, num_frames=6,
                image_size=IMAGE_SIZE, seed=10,
            )
        ),
    ),
}


@dataclass
class Deployment:
    """A trained model at its iso-accuracy operating point, ready to serve."""

    dataset: str
    model: object
    test: ArrayDataset
    timesteps: int
    threshold: float
    chip: IMCChip

    @property
    def event_stream(self) -> bool:
        return self.dataset == "cifar10dvs"

    def policy(self) -> EntropyExitPolicy:
        return EntropyExitPolicy(threshold=self.threshold)


def train_deployment(dataset: str) -> Deployment:
    """Synthesize the dataset, train, calibrate and map onto the IMC chip."""
    recipe = DATASETS[dataset]
    seed_everything(100)
    train, test = train_test_split(recipe["build"](), test_fraction=0.28, seed=5)
    key = ("vgg", dataset, "per_timestep", repr([]))
    seed_everything(1000 + zlib.crc32(repr(key).encode()) % 1000)
    event_stream = dataset == "cifar10dvs"
    model = spiking_vgg(
        "tiny",
        num_classes=train.num_classes,
        in_channels=train.sample_shape[-3],
        input_size=train.sample_shape[-1],
        default_timesteps=recipe["timesteps"],
        encoder=EventFrameEncoder() if event_stream else None,
    )
    Trainer(
        model,
        TrainingConfig(
            epochs=recipe["epochs"], timesteps=recipe["timesteps"],
            learning_rate=0.15, loss="per_timestep",
        ),
    ).fit(DataLoader(train, batch_size=36, seed=3))
    collected = collect_cumulative_logits(
        model, DataLoader(test, batch_size=64, shuffle=False),
        timesteps=recipe["timesteps"],
    )
    point = calibrate_threshold(collected["logits"], collected["labels"], tolerance=0.0)
    chip = IMCChip.from_network(
        model, test.inputs[:4], num_classes=test.num_classes, trace_timesteps=2
    )
    return Deployment(
        dataset=dataset, model=model, test=test, timesteps=recipe["timesteps"],
        threshold=float(point.threshold), chip=chip,
    )


def reference_decisions(deployment: Deployment, inputs: np.ndarray) -> Dict[str, np.ndarray]:
    """Predictions and exit timesteps from the Tensor oracle plus
    :meth:`DynamicTimestepInference.infer_from_logits`.

    ``use_runtime=False`` runs the define-by-run path, which has neither the
    compiled plan nor the keyed stem memo, so it is the memo-off reference
    for event streams as well.
    """
    labels = np.zeros(len(inputs), dtype=np.int64)
    dataset = ArrayDataset(inputs, labels, num_classes=deployment.test.num_classes)
    logits = collect_cumulative_logits(
        deployment.model, DataLoader(dataset, batch_size=128, shuffle=False),
        timesteps=deployment.timesteps, use_runtime=False,
    )["logits"]
    result = DynamicTimestepInference(
        policy=deployment.policy(), max_timesteps=deployment.timesteps
    ).infer_from_logits(logits)
    return {
        "predictions": np.asarray(result.predictions, dtype=np.int64),
        "exits": np.asarray(result.exit_timesteps, dtype=np.int64),
    }
