"""Propaganda span identification and technique classification toolkit."""

from .tokens import (Span, Token, TokenizedText, Vocab, extend_context,
                     inject_markers, spans_to_tags, tags_to_spans, tokenize)
from .tensor import Tensor, grad_check, no_grad
from .crf import ConstraintMask, CrfParams, log_partition, nll, viterbi
from .losses import ClassWeights, class_weights, reweighted_bce
from .metrics import FlcScore, confusion_matrix, flc_f1, micro_f1, span_outcomes
from .stats import TestResult, bartlett, kruskal_wallis, mann_whitney_u, spearman_rho
from .analysis import AnalysisItem, FeatureSpec, extract_feature, worsening_features
from .datasets import SpanDataset, load_dataset
from .synth import SynthConfig, gen_synth
from .encoder import Encoder, EncoderConfig, SpanClsConfig
from .models import SiTagger, TcClassifier
from .pipeline import (HyperParams, TcOptions, annotate_si, build_tc_silver,
                       ensemble_predict, kfold_split, self_train_overwrite,
                       self_train_si, train_si, train_tc)

__version__ = "0.1.0"
