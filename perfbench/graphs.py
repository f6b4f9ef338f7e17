"""The fixed inputs of every workload (suite dataset names)."""

#: batch-fresh, dense class: ``(dataset, config)`` in submission order.
#: Admission windows the three largest, so both search paths run.
DENSE = [
    ("soc-comm-30x70", {}),
    ("soc-comm-30x70", {"problem": "k-clique-count", "k": 4}),
    ("soc-comm-60x80", {}),
    ("fb-comm-30x100", {}),
    ("soc-comm-50x90", {}),
]

#: batch-fresh, sparse class: the heuristic and setup prune almost
#: every candidate, so the multi-run heuristic dominates.
SPARSE = [
    (name, {})
    for name in (
        "ca-team-48k", "web-rmat-16", "road-grid-360", "tech-cl-56k", "bio-cl-16k"
    )
]

#: wire-hot: the four small suite graphs of the server latency bench
WIRE = ["soc-comm-10x50", "road-grid-60", "ca-team-1k", "bio-cl-1k"]

#: stream-social: the dense social graph the session grows
STREAM = "fb-comm-30x100"
