"""Desk-scale laboratory for gated deep-supervision explainability."""

from . import analysis, autodiff, blocks, datasets, metrics, models, saliency
from .autodiff import Tensor, backward, grad_wrt
from .blocks import MhexParams, MhexOutput, attention_gate, ds_logits, \
    equivalent_matrix, mhex_loss, run_block
from .datasets import gen_shapes, gen_tokens, localization_score
from .models import (ResNetConfig, ResNetModel, TransformerConfig,
                     TransformerModel, count_mhex_params, load_checkpoint,
                     save_checkpoint, train)
from .saliency import (SaliencyMap, TokenSaliency, WeightFilterConfig,
                       aggregate_cams, cam_layer, explain_image,
                       explain_tokens, final_weights, gradcam_baseline,
                       render_heatmap)

__version__ = "0.1.0"
