"""Fixture: every queue-internal touch simlint must flag."""
import heapq
from heapq import heappush


def sneak_past_the_interface(sim):
    # Scheduling around the EventQueue API: heap and pool pokes.
    heappush(sim._heap, (0.0, 0, None))
    heapq.heappop(sim._heap)
    sim._pool.clear()
    sim._push(0.0, next(sim._seq), None)
    return sim.queue._dead


def unbalance_the_books(queue):
    queue._heap.clear()
    queue._dead = 0
    return queue._heap
