"""Serving demo: a mixed CNN-layer workload through ``repro.serve``.

Generates a synthetic trace of 120 requests over six repeating problem
shapes (single-channel image-processing shapes next to small
multi-channel CNN layers), serves it through the dynamic-batching
engine, and shows the three things the subsystem is for:

* **correctness** — every response is bit-exact against the golden
  ``conv2d_reference`` (the engine computes every batch with it; the
  dispatched backend supplies the modeled cost);
* **plan caching** — the design-space explorer runs once per distinct
  shape, so the cache hit rate approaches 1 as shapes repeat;
* **batching** — coalescing same-shape requests under the latency
  deadline amortizes launch overhead, so throughput in requests per
  modeled second strictly beats the unbatched single-request path.

Run:  python examples/serving_demo.py
"""

import numpy as np

from repro import conv2d_reference
from repro.serve import ServeEngine, synthetic_trace

N_REQUESTS = 120


def serve(deadline_s, max_batch):
    engine = ServeEngine(deadline_s=deadline_s, max_batch=max_batch)
    trace = synthetic_trace(N_REQUESTS, seed=7)
    responses = engine.serve_trace(trace)
    return trace, responses, engine


def main():
    # --- batched serving ------------------------------------------------
    trace, responses, engine = serve(deadline_s=1e-3, max_batch=16)
    shapes = {request.problem for request in trace}
    print("serving %d requests over %d distinct shapes"
          % (len(trace), len(shapes)))

    # Correctness: bit-exact against the golden reference convolution.
    mismatches = sum(
        not np.array_equal(
            response.output,
            conv2d_reference(request.image, request.filters,
                             request.problem.padding),
        )
        for request, response in zip(trace, responses)
    )
    print("bit-exact vs conv2d_reference : %d/%d match"
          % (len(trace) - mismatches, len(trace)))
    assert mismatches == 0

    snap = engine.stats()
    print("\n--- engine stats (batched, deadline=1 ms, max_batch=16) ---")
    print(engine.format_stats())

    # Plan caching: the explorer ran once per shape, then pure hits.
    hit_rate = snap["plan_cache"]["hit_rate"]
    assert snap["plan_cache"]["misses"] == len(shapes)
    assert hit_rate > 0.8, hit_rate

    # --- unbatched single-request path on the same trace ----------------
    _, _, unbatched = serve(deadline_s=0.0, max_batch=1)
    usnap = unbatched.stats()
    print("\n--- batched vs unbatched, same trace ---")
    print("batched   : %7.0f req/modeled-s (mean batch %.2f)"
          % (snap["throughput_rps"], snap["mean_batch_size"]))
    print("unbatched : %7.0f req/modeled-s (mean batch %.2f)"
          % (usnap["throughput_rps"], usnap["mean_batch_size"]))
    speedup = snap["throughput_rps"] / usnap["throughput_rps"]
    print("batching speedup : %.2fx" % speedup)
    assert snap["throughput_rps"] > usnap["throughput_rps"]

    # The price of batching is latency: the deadline bounds the wait.
    print("latency mean (batched)   : %.2e s" % snap["mean_latency_s"])
    print("latency mean (unbatched) : %.2e s" % usnap["mean_latency_s"])


if __name__ == "__main__":
    main()
