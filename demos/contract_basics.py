"""Walk through the contract primitives for a two-borrower group.

Shows how the break-even repayment obligation moves with the success
probability, where the two loan ceilings sit, and what the member-level
profit distribution looks like at a mid-range score.

Run:  python3 demos/contract_basics.py
"""

import numpy as np

from eselend import (
    MarketParams,
    binding_repayment,
    loan_ceiling_affordability,
    loan_ceiling_incentive,
    profit_distribution_group,
)

params = MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                      epsilon=0.05, delta=0.9)

print("Market: p=1, yields 1000/500, loan 100 at 5% interest, delta 0.9")
print()
print("Break-even repayment w and loan ceilings by success probability")
print(f"{'e':>5} {'w (n=2)':>10} {'L1 afford':>11} {'L2 incentive':>13}")
for e in np.arange(0.2, 1.01, 0.2):
    w = binding_repayment(float(e), 2, params)
    l1 = loan_ceiling_affordability(float(e), params)
    l2 = loan_ceiling_incentive(float(e), params)
    print(f"{e:5.1f} {w:10.2f} {l1:11.2f} {l2:13.2f}")

print()
print("The incentive ceiling L2 always binds first: the lender can lend")
print("no more than L2 without inviting strategic default.")

print()
e = 0.5
w = binding_repayment(e, 2, params)
dist = profit_distribution_group(e, 2, w, params)
print(f"Member profit distribution at e={e}, w={w:.2f}:")
for prob, profit in zip(dist.probabilities, dist.profits):
    print(f"  probability {prob:.2f}  profit {profit:9.2f}")
print(f"  mean {dist.mean():.2f}, standard deviation "
      f"{np.sqrt(dist.variance()):.2f}")
