"""How the optimal score requirement changes with group size.

Solves the group first-order condition for n = 1..30, prints the
sensitivity derivative dE/dn alongside, and shows the large-group
limit the sequence approaches.

Run:  python3 demos/group_size_effect.py
"""

from eselend import (
    CostModel,
    DomainError,
    MarketParams,
    ScoreLink,
    dE_dn,
    ese_limit,
    optimal_ese_group,
)

params = MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                      epsilon=0.05, delta=0.9)
cost = CostModel(c=1000.0)
link = ScoreLink(k=0.01, b=0.0)

limit = ese_limit(params, cost, link)
print("Optimal ESE score by group size (reference calibration)")
print(f"{'n':>4} {'optimal E':>10} {'dE/dn':>12}")
for n in (1, 2, 3, 4, 5, 8, 12, 20, 30):
    opt = optimal_ese_group(n, params, cost, link)
    try:
        slope = f"{dE_dn(n, opt.score, params, cost, link):12.4f}"
    except DomainError:
        # The derivative is undefined at e=1, where the n=1 optimum sits.
        slope = f"{'n/a':>12}"
    print(f"{n:4d} {opt.score:10.4f} {slope}")

print()
print(f"Large-group limit: E -> {limit.score:.2f}")
print("A lone borrower needs the top score; joint liability lets the")
print("requirement fall toward the limit as partners absorb more of the")
print("repayment risk. The derivative shrinks geometrically, so most of")
print("the drop happens in the first handful of members.")
