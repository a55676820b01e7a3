"""The step kind a test wants, through the costs the Gram families declare.

`composite.hessian_free_pays` picks a step's kind from the oracle's
declared costs (`SmoothOracle.costs`).  A test that compares the two kinds
on one instance declares the costs that give the kind it wants, within a
monkeypatch context, rather than resizing the instance.
"""

from qscnewton.oracles import SmoothOracle
from qscnewton.problems import _GramObjective


def declare_dense(patch) -> None:
    """The Gram families declare the default costs, products no cheaper
    than a Hessian, so every step is the dense one."""
    patch.setattr(_GramObjective, "costs", SmoothOracle.costs)


def declare_cheap_products(patch) -> None:
    """The Gram families declare 1e7 flops a Hessian and products that cost
    nothing, so steps are Hessian-free at any size."""
    declared = _GramObjective.costs.fget
    patch.setattr(_GramObjective, "costs", property(lambda self: declared(self)._replace(hessian=1e7, product=0.0)))
