"""Why the matrix-exponential activation matters: entry-wise activations
cannot interpolate two pairs, and gradient descent shows it.

A two-layer map with an entry-wise activation enforces the first
interpolation condition by construction; the residual of the second is
minimized by full-batch descent and tracked as the score

    s = ||Y1 - Y2 sigma(W X2)^-1 sigma(W X1)||^2 / ||Y1 - Y2 X2^-1 X1||^2

so s = 1 means "no better than a plain linear layer". Run:

    python3 demos/03_elementwise_descent.py
"""

from expnet import ExperimentConfig, run_experiment, write_trace_csv

SEEDS = tuple(range(1, 11))

print("activation  dim  steps    median s: init -> final   diverged")
for activation in ("identity", "sigmoid", "relu"):
    for dim in (4, 8, 16):
        cfg = ExperimentConfig(dim=dim, activation=activation, steps=500,
                               seeds=SEEDS)
        trace = run_experiment(cfg)
        n_div = trace.divergent_count()
        print(f"{activation:>10}  {dim:>3}  {cfg.steps:>5}    "
              f"{trace.median_initial():8.4f} -> {trace.median_final():.4f}"
              f"      {n_div}/{len(SEEDS)}")

# identity stays pinned at s = 1: the normalization makes it W-independent.
# sigmoid and relu descend well below 1, but a longer run makes the point
# sharper; reproduce the full setting and keep the trace for plotting:
print("\nfull-length sigmoid run at d=8 (2000 steps)...")
cfg = ExperimentConfig(dim=8, activation="sigmoid", steps=2000, seeds=SEEDS)
trace = run_experiment(cfg)
sidecar = write_trace_csv(trace, "trace-sigmoid-d8.csv")
print(f"median final s: {trace.median_final():.4f}")
print("wrote trace-sigmoid-d8.csv and", sidecar)
