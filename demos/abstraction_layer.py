"""One abstraction unit, opened up.

A unit masks its input with a learned sparse distribution, pushes the
selected features through two bias-free affines with ghost batch norm, and
gates one branch with the sigmoid of the other. A unit trains inside an
abstraction layer, so this script opens one up in a layer of one branch: it
forces a readable mask by hand, runs a few training steps' worth of forward
passes, and shows the batch-norm running statistics converging toward the
stream.
"""

import numpy as np

from danet import AbstractLayer, Rng, entmax15

if __name__ == "__main__":
    np.set_printoptions(precision=4, suppress=True)
    rng = Rng(11)

    layer = AbstractLayer(in_dim=6, out_dim=3, branches=1, ghost_size=8, rng=Rng(0))
    unit = layer.units[0]
    # push the mask toward features 0 and 3; entmax zeroes the rest
    unit.mask_logits[:] = [3.0, 0.0, 0.0, 2.5, 0.0, 0.0]
    print("mask:", entmax15(unit.mask_logits).probs)

    # feature 5 is wild noise, but the mask never lets it through
    for step in range(30):
        x = rng.standard_normal((8, 6))
        x[:, 5] *= 1e6
        out, ctx = layer.forward(x, train=True)
        if step in (0, 9, 29):
            bn = unit.bn2
            print(f"step {step:2d}: out[0] {out[0]}  "
                  f"running_mean[0] {bn.running_mean[0]:+.4f}  "
                  f"running_var[0] {bn.running_var[0]:.4f}  "
                  f"updates {bn.updates}")

    x = rng.standard_normal((4, 6))
    noisy = x.copy()
    noisy[:, 5] += 1e8
    clean_out, _ = unit.forward(x, train=False)
    noisy_out, _ = unit.forward(noisy, train=False)
    print("\neval outputs identical despite the poisoned masked column:",
          bool(np.array_equal(clean_out, noisy_out)))

    # the gate saturates: large negative first-branch activations shut the
    # output off entirely (relu of a negative gated value)
    dead = np.count_nonzero(clean_out == 0.0)
    print(f"exact zeros in the eval output: {dead}/{clean_out.size}")
