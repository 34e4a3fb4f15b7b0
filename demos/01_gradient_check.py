"""Show the hand-written backward passes agreeing with finite differences.

Every layer here computes its own gradients analytically; nothing is
autograd.  This script perturbs each weight with central differences at
float64 and prints the worst relative error per layer.
"""

import numpy as np

from abusekit.layers import BiLstm, Conv1D, Dense, softmax_cross_entropy


def numerical_grad(loss_fn, array, eps=1e-5):
    grad = np.zeros(array.shape, dtype=np.float64)
    flat = array.reshape(-1)
    for i in range(flat.size):
        keep = flat[i]
        flat[i] = keep + eps
        up = loss_fn()
        flat[i] = keep - eps
        down = loss_fn()
        flat[i] = keep
        grad.reshape(-1)[i] = (up - down) / (2.0 * eps)
    return grad


def worst_error(layer, x):
    rng = np.random.default_rng(999)
    proj = rng.standard_normal(layer.forward(x).shape)

    def loss():
        return float((layer.forward(x) * proj).sum())

    layer.zero_grad()
    layer.forward(x, train_mode=True)   # keeps what backward reads
    dx = layer.backward(proj.copy())
    analytic = {id(p): p.grad.copy() for p in layer.parameters()}

    def rel(a, n):
        return np.max(np.abs(a - n) / np.maximum(np.abs(a) + np.abs(n), 1e-8))

    worst = rel(dx, numerical_grad(loss, x))
    for p in layer.parameters():
        worst = max(worst, rel(analytic[id(p)], numerical_grad(loss, p.value)))
    return worst


def main():
    rng = np.random.default_rng(0)
    print("central finite differences, eps=1e-5, float64\n")

    conv = Conv1D(3, 4, 2, rng, activation="tanh", dtype=np.float64)
    err = worst_error(conv, rng.standard_normal((2, 7, 3)))
    print(f"conv1d (width 2)      worst rel error {err:.2e}")

    dense = Dense(4, 6, rng, activation="tanh", dtype=np.float64)
    err = worst_error(dense, rng.standard_normal((2, 5, 4)))
    print(f"dense (per timestep)  worst rel error {err:.2e}")

    bilstm = BiLstm(3, 4, rng, dropout=0.0, recurrent_dropout=0.0,
                    dtype=np.float64)
    err = worst_error(bilstm, rng.standard_normal((2, 6, 3)))
    print(f"bilstm (full BPTT)    worst rel error {err:.2e}")

    logits = rng.standard_normal((4, 3))
    onehot = np.eye(3)[rng.integers(0, 3, size=4)]
    _, grad = softmax_cross_entropy(logits, onehot)

    def ce_loss():
        return softmax_cross_entropy(logits, onehot)[0]

    num = numerical_grad(ce_loss, logits)
    err = np.max(np.abs(grad - num) / np.maximum(np.abs(grad) + np.abs(num), 1e-8))
    print(f"softmax cross-entropy worst rel error {err:.2e}")

    print("\nanything under 1e-4 (1e-6 for the loss) means the math checks out")


if __name__ == "__main__":
    main()
