"""camlab: gradient-based visual explanations for small CNNs.

A self-contained engine: tensor ops and reverse-mode autodiff, a minimal
trainer for fixture models, the Grad-CAM family of explanations, occlusion
sensitivity, and the evaluation protocols (weak localization, pointing
game, faithfulness) at desk scale.
"""

from .autodiff import ActivationTape, grad_at_layer, one_hot
from .evaluation import (BBox, extract_bbox, iou, modified_pointing,
                         pointing_game, rank_correlation)
from .explain import (CamIncompatibleError, GradCamConfig, cam,
                      counterfactual, gradcam, guided_gradcam,
                      neuron_weights, normalize_heatmap, pixel_saliency,
                      saliency_to_heatmap)
from .fixtures import (AttackResult, ShapesExample, adversarial_attack,
                       load_dataset, make_shapes_dataset, save_dataset)
from .nn import (ModelSpec, WeightStore, fix_fc_spec, fix_gap_spec, forward,
                 load_model_spec, parse_model_spec, save_model_spec,
                 train_fixture)
from .occlusion import OcclusionConfig, occlusion_map

__version__ = "0.1.0"
