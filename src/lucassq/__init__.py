"""Exact determination of perfect squares in Lucas sequences U_n(P, Q).

Library layout:

* ``exact``       -- exact square roots, multivariate Poly, binary-form resultants
* ``lucas``       -- Lucas sequences, degeneracy classes, square-term scans
* ``elementary``  -- square criteria and solution families for n = 2..7
* ``fields``      -- the two quartic fields, their units and ideals
* ``curves``      -- the descent curve catalog over those fields
* ``padic``       -- 3-adic formal groups, Skolem drivers
* ``heights``     -- archimedean/canonical heights, generator certification
* ``cli``         -- command-line front end and theorem certificates
"""

__version__ = "0.1.0"
