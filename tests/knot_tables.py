"""The knot table of a slice given as Marginal1DTransform objects, for the
tests that compare the table with those transforms."""

from overdensity.conditional import KnotTable


def knot_table(transforms):
    """The KnotTable whose bin b maps as transforms[b] does; the
    transforms share one derivative floor, as a model's do."""
    (floor,) = {tr.derivative_floor for tr in transforms}
    return KnotTable([(tr.knots_in, tr.knots_out) for tr in transforms], floor)
