"""Cooperative edge training over simulated fading channels.

The package simulates four training protocols (independent learning,
federated averaging of weight updates, federated distillation of logit
tables, and a hybrid variant with an offline mixed-covariate exchange)
over any combination of digital and analog uplink/downlink pipelines.
"""
