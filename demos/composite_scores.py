"""From raw farm metrics to a composite score to a lending contract.

Builds a small cohort over a three-pillar schema, computes composite
scores, and feeds each score through the probability link into the
pair-lending model to show the contract each farmer would face.

Run:  python3 demos/composite_scores.py
"""

import numpy as np

from eselend import (
    MarketParams,
    MetricDef,
    MetricRecord,
    ScoreLink,
    ScoringScheme,
    binding_repayment,
    composite_score,
    success_probability,
)

scheme = ScoringScheme(schema=(
    MetricDef(id="soil_organic_matter", pillar="ENVIRONMENTAL",
              direction="HIGHER_BETTER", kind="CONTINUOUS"),
    MetricDef(id="water_use", pillar="ENVIRONMENTAL",
              direction="LOWER_BETTER", kind="CONTINUOUS"),
    MetricDef(id="training_attended", pillar="SOCIAL",
              direction="HIGHER_BETTER", kind="BINARY"),
    MetricDef(id="profit_margin", pillar="ECONOMIC",
              direction="HIGHER_BETTER", kind="CONTINUOUS"),
))

rng = np.random.default_rng(42)
farmers = [f"farm_{i:02d}" for i in range(8)]
records = []
for farmer in farmers:
    records.append(MetricRecord(farmer, "soil_organic_matter",
                                float(rng.normal(3.5, 1.0))))
    records.append(MetricRecord(farmer, "water_use",
                                float(rng.uniform(200.0, 900.0))))
    records.append(MetricRecord(farmer, "training_attended",
                                float(rng.integers(0, 2))))
    records.append(MetricRecord(farmer, "profit_margin",
                                float(rng.normal(0.15, 0.08))))

scores = composite_score(records, scheme)

params = MarketParams(p=1.0, y_high=1000.0, y_low=500.0, loan=100.0,
                      epsilon=0.05, delta=0.9)
link = ScoreLink(k=0.007, b=0.3)

print("Composite scores and the pair contract they imply")
print(f"(probability link e = {link.k}*E + {link.b}, loan 100 at 5%)")
print(f"{'farmer':>8} {'score':>7} {'success e':>10} {'w (n=2)':>9}")
for farmer in farmers:
    E = scores[farmer]
    e = float(success_probability(E, link))
    w = binding_repayment(e, 2, params)
    print(f"{farmer:>8} {E:7.2f} {e:10.3f} {w:9.2f}")

print()
print("Higher composite scores raise the success probability, which")
print("lowers the break-even repayment the lender must charge.")
