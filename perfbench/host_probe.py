"""A fixed piece of pure-Python graph work whose wall time tracks the host's speed.

run.py starts it as its own process before and after every op it times, and
scales the op's time by it (see run.run_ops).  Like an op, it starts an
interpreter and then walks graphs in Python.  It imports only the
benchmark's own code, never orbigraph or numpy, so no change to the program
moves it.
"""

import bench_inputs as bi

if __name__ == "__main__":
    bi.certified_rigid(bi.adjacency(300, bi.cubic_graph(0, 300)))
