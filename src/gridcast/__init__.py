"""Grid-MDP intention reasoning and multimodal trajectory forecasting."""

from .grid import ACTIONS, STAY, CellIndex, GridSpec, cell_to_world, quantize_trajectory, step, world_to_cell
from .irl import (
    Demonstration,
    IrlDivergenceError,
    RewardMapParams,
    TrainConfig,
    VisitationField,
    build_demonstration,
    build_path_demonstration,
    expected_visitation,
    expert_visitation,
    irl_loss_and_grad,
    reward_backward,
    reward_forward,
    soft_policy,
    soft_value_iteration,
    train_irl,
)
from .config import RunConfig
from .scene import SceneContext, generate_scene, load_scene, normalize_to_target, rasterize_features, save_scene

__version__ = "0.1.0"

__all__ = [
    "ACTIONS", "STAY", "CellIndex", "GridSpec", "cell_to_world", "world_to_cell",
    "step", "quantize_trajectory",
    "Demonstration", "IrlDivergenceError", "RewardMapParams",
    "TrainConfig", "VisitationField", "build_demonstration",
    "build_path_demonstration", "expected_visitation", "expert_visitation",
    "irl_loss_and_grad", "reward_backward", "reward_forward",
    "soft_policy", "soft_value_iteration", "train_irl",
    "RunConfig",
    "SceneContext", "generate_scene", "load_scene", "normalize_to_target",
    "rasterize_features", "save_scene",
    "__version__",
]
