"""aliaslab: desk-scale laboratory for view-sampling aliasing in
generalized Radon reconstructions.

The package builds analytic sinograms of disk phantoms for two curve
families (straight lines, and circles centered on an acquisition circle),
smooths them in the scalar variable, reconstructs by filtered
backprojection from a finite set of view angles, and compares the
resulting interior oscillation against a closed-form lattice-sum
prediction driven by the tangency geometry.
"""

__version__ = "0.1.0"
