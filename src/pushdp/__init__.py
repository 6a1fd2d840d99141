"""Simulator for differentially private decentralized SGD.

Nodes hold disjoint data shards and optimize a shared model by gossiping
over a time-varying directed communication graph with column-stochastic
mixing (push-sum weights correct for the directedness).  Per-iteration
gradient clipping bounds and Gaussian-DP noise budgets follow configurable
schedules, and a composition accountant sets the noise for an end-to-end
privacy target under the CLT composition, which under-reports delta.
"""

__version__ = "0.1.0"
