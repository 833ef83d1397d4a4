"""The tensor engine: taped ops, attention, gradients, Adam.

Everything the policy network needs runs on float32 or float64 numpy arrays
(a tape keeps its data's dtype; these examples are float64) with a
micrograd-style tape; backward() walks it in reverse topological order.
"""

import numpy as np

from coopgraph import autodiff as ad
from coopgraph.autodiff import Adam, Tensor

rng = np.random.default_rng(1)

# --- forward ops ------------------------------------------------------------
x = Tensor(rng.normal(size=(2, 5)))
print("softmax rows sum to one:", ad.softmax(x).data.sum(axis=1))

q = Tensor(rng.normal(size=(3, 8)))
k = Tensor(rng.normal(size=(6, 8)))
v = Tensor(rng.normal(size=(6, 4)))
mask = np.ones((3, 6)); mask[2, :] = 0  # query 2 sees no keys
out = ad.scaled_dot_attention(q, k, v, 1.0 / np.sqrt(8), key_mask=mask)
print("attention output shape:", out.shape, "| fully-masked row is zero:", out.data[2])

# --- reverse mode (linear: x @ w + b as one tape node) ----------------------
w = Tensor(rng.normal(size=(5, 3)), requires_grad=True)
b = Tensor(np.zeros(3), requires_grad=True)
loss = ad.mean(ad.square(ad.exp(ad.linear(x, w, b))))
ad.backward(loss)
print("\nloss:", float(loss.data))
print("dL/db:", b.grad.round(4))

# spot-check one coordinate against central differences
h = 1e-6
w.data[0, 0] += h
up = float(ad.mean(ad.square(ad.exp(ad.linear(x, w, b)))).data)
w.data[0, 0] -= 2 * h
down = float(ad.mean(ad.square(ad.exp(ad.linear(x, w, b)))).data)
w.data[0, 0] += h
print(f"dL/dw[0,0]: analytic {w.grad[0,0]:.6f} vs finite difference {(up-down)/(2*h):.6f}")

# --- optimizer --------------------------------------------------------------
p = Tensor(rng.normal(size=8) * 3, requires_grad=True)
opt = Adam({"p": p}, lr=1e-2)
for step in range(4000):
    p.grad = 2.0 * p.data  # gradient of ||p||^2
    opt.step()
print(f"\nAdam on a quadratic bowl: |p| after 4000 steps = {np.linalg.norm(p.data):.2e}")
