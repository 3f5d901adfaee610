"""Exact residue engines for genus 0 and genus 1 structure constants of
projective hypersurfaces, with mirror maps and Gromov-Witten extraction."""

from .calabi_yau import CyReport, cy_report, ltilde
from .elliptic import elliptic_constant
from .genus0 import genus0_constant
from .hypersurface import Hypersurface
from .pipeline import GwRow, gw_table, invert_corrections, mirror_corrections
from .poly import SparsePoly, linear_form
from .ratfun import NonLinearPoleError, RatExpr
from .series import TruncatedSeries, substitute

__all__ = [
    "SparsePoly", "linear_form", "RatExpr", "NonLinearPoleError",
    "Hypersurface", "TruncatedSeries", "substitute",
    "genus0_constant", "elliptic_constant",
    "mirror_corrections", "invert_corrections", "GwRow", "gw_table",
    "CyReport", "cy_report", "ltilde",
]
