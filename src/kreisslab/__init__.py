"""kreisslab: a numerical laboratory for Kreiss-type resolvent bounds,
matrix power growth, and Fourier decomposition constants on the discrete torus."""

__version__ = "0.1.0"
