"""A small numpy neural-network library (the PyTorch substitute).

Provides exactly what CLAP needs: a GRU layer whose update/reset gate
activations are first-class outputs, dense autoencoders, cross-entropy and L1
losses, Adam/SGD optimisers and ``.npz`` model persistence — all with manual,
tested forward and backward passes.
"""

from repro.nn.activations import (
    get_activation,
    identity,
    leaky_relu,
    relu,
    sigmoid,
    softmax,
    tanh,
)
from repro.nn.autoencoder import Autoencoder, symmetric_layer_sizes
from repro.nn.backend import (
    SERVING_BACKENDS,
    SequenceBackend,
    convert_backend,
    serving_backend_name,
)
from repro.nn.dense import Dense
from repro.nn.gru import (
    GRULayer,
    GRUSequenceClassifier,
    GruForwardResult,
    GruStepCache,
)
from repro.nn.initializers import glorot_uniform, orthogonal, zeros
from repro.nn.losses import L1Loss, MSELoss, SoftmaxCrossEntropy
from repro.nn.optim import Adam, Optimizer, SGD
from repro.nn.serialization import load_state, save_state

__all__ = [
    "Adam",
    "Autoencoder",
    "Dense",
    "GRULayer",
    "GRUSequenceClassifier",
    "GruForwardResult",
    "GruStepCache",
    "L1Loss",
    "MSELoss",
    "Optimizer",
    "SERVING_BACKENDS",
    "SGD",
    "SequenceBackend",
    "SoftmaxCrossEntropy",
    "convert_backend",
    "get_activation",
    "glorot_uniform",
    "identity",
    "leaky_relu",
    "load_state",
    "orthogonal",
    "relu",
    "save_state",
    "serving_backend_name",
    "sigmoid",
    "softmax",
    "symmetric_layer_sizes",
    "tanh",
    "zeros",
]
