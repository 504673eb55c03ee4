"""Anatomy of the Gaussian attention head on one synthetic video.

Generates a short sequence with a planted signal window, then shows how the
attention statistics respond: the soft-argmax mean locks onto the window
while the sigmoid-summed width shrinks around it once the detectors point
in the right direction. Run with:

    python3 demos/attention_anatomy.py
"""

import numpy as np

from clta.attention import attend_forward
from clta.synth import SynthConfig, generate

BAR = " .:-=+*#%@"


def sparkline(w):
    scaled = (w - w.min()) / max(w.max() - w.min(), 1e-12)
    return "".join(BAR[int(x * (len(BAR) - 1))] for x in scaled)


def main():
    cfg = SynthConfig(num_classes=6, videos_per_class=4, d=24, t_min=16, t_max=24,
                      window_len=5, noise_std=0.05, seed=3)
    ds = generate(cfg)
    seq = ds.split("train")[5]
    Z = cfg.t_max
    cue = np.full(cfg.d, 1.0 / np.sqrt(cfg.d))
    proj = seq.features @ cue
    print(f"video {seq.video_id}: T = {seq.T}, Z = {Z}")
    print(f"cue projection per frame:   {sparkline(proj)}")
    print("(the bright run of frames is the planted window)\n")

    rng = np.random.default_rng(0)
    K = 3
    every_frame = np.ones(seq.T, dtype=bool)

    print("-- random detectors: the head has not learned where to look --")
    cache = attend_forward(seq.features, rng.standard_normal((K, cfg.d)) * 1e-3,
                           rng.standard_normal((K, cfg.d)), beta=1e3, Z=Z,
                           mask=every_frame)
    for k in range(K):
        print(f"head {k}: mu = {cache['mu'][k]:.3f}  sigma = {cache['sigma'][k]:.3f}  "
              f"weights {sparkline(cache['e'][k])}")

    print("\n-- hand-built detectors: mean row = cue, std row = -cue --")
    # pointing the mean detector along the cue makes the soft-argmax land on
    # the window; a negative std detector drives the sigmoids toward zero on
    # quiet frames, so the Gaussian tightens
    cache = attend_forward(seq.features,
                           np.tile(cue, (K, 1)) * np.array([[1.0], [2.0], [4.0]]),
                           np.tile(-8.0 * cue, (K, 1)), beta=1e3, Z=Z,
                           mask=every_frame)
    for k in range(K):
        print(f"head {k}: mu = {cache['mu'][k]:.3f}  sigma = {cache['sigma'][k]:.3f}  "
              f"weights {sparkline(cache['e'][k])}")

    peak = int(np.argmax(cache["e"][2])) + 1
    print(f"\nsharpest head peaks at frame {peak}; "
          f"cue projection peaks at frame {int(np.argmax(proj)) + 1}")
    print("The weights follow the contents, not the absolute frame index:")
    print("shift the window and the Gaussian moves with it, which is exactly")
    print("what the shared-filter baselines (tsf, sldg) cannot do.")


if __name__ == "__main__":
    main()
