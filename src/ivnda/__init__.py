"""i-vector speaker recognition with nonparametric discriminant analysis.

The package implements the full recipe: MFCC+SAD frontend, diagonal-GMM
background model, Baum-Welch statistics, total-variability subspace and
i-vector extraction, LDA/NDA channel compensation, length normalization,
two-covariance PLDA scoring, and EER/DCF evaluation, plus a command-line
pipeline (`ivnda`) and seeded synthetic corpus generators.
"""
