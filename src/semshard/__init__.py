"""Sharded oracle verifier-network simulator with an adaptive DQN controller."""
