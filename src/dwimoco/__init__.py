"""Motion-compensated quantitative diffusion-weighted MRI analysis.

Estimates per-voxel mono-exponential decay parameters (ADC, S0) jointly
with per-b-value deformation fields by minimizing a loss that combines
image similarity, field smoothness, and decay-model fit quality, plus the
downstream ADC-versus-gestational-age saturation model and a phantom
simulator for end-to-end verification.

The package re-exports nothing; import each name from its submodule:

- `pipeline`: one case (`run_case`) and a cohort (`run_cohort`,
  `run_simulated_cohort`), alternating the decay fit and the registration;
- `registration`: Adam over the per-b-value displacement fields;
- `objective`: the similarity, smoothness and model-fit loss terms;
- `signal_model`: the per-voxel and ROI-mean decay fits (LLS, robust L1);
- `maturity`: the ADC-versus-gestational-age saturation fit;
- `volume`: volumes, series, masks, fields and warping;
- `phantom`: the simulated case and its ground truth;
- `io`: case manifests, volume containers and reports on disk;
- `cli`: the `dwimoco` command (`simulate`, `fit`, `morph`, `cohort`);
- `_kernels`: the one numpy implementation of each hot kernel.
"""
