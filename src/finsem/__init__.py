"""Finite-model semantics: relations, frames, typed models, two evaluators,
model collapse morphisms, and two small natural-language fragments."""
