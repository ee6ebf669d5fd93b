"""certlab: a desk-scale laboratory tying sample-bounded learning to
certificate search.

Concepts reveal single bits of an error-correction-encoded first certificate;
learners trade samples against brute-force search time; a perfectly sound
challenge protocol turns any plugged-in learner into a one-sided randomized
SAT decider.  Everything is verified against brute-force oracles at small
scale.
"""

__version__ = "0.1.0"
