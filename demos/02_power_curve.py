"""
Approximating a power curve and recommending sample sizes
=========================================================

Instead of re-estimating power at every candidate n, each randomized
point contributes the single sample size at which its simulated trial
enters the rejection region.  The empirical distribution of those
crossings is the power curve, and its target-power quantile is the
sample-size recommendation.
"""

from bepower import DesignSpec, empirical_power, power_curve

spec = DesignSpec(mu_diff=-4.0, sigma1=18.0, sigma2=15.0,
                  delta_L=-19.2, delta_U=19.2, alpha=0.05)

# one root-finding pass over 1024 points covers every sample size at
# once; about 20 ms of work (about 50 ms for the first call in a
# process, which builds the knot tables)
pc = power_curve(spec, target_power=0.8, m=1024, seed=2024)
print(f"recommended sizes: n1 = {pc.rec_n1}, n2 = {pc.rec_n2} "
      f"(continuous n* = {pc.n_star_final:.3f})")
print(f"points re-solved by the safeguard: {pc.reinit_count}, "
      f"censored: {pc.censored_count}")
print(f"g evaluations per point: {pc.g_evals_total / pc.m:.1f}")

# the crossing ECDF reads out the whole curve; compare a few sample
# sizes against fresh direct estimates
print("\n  n   curve   direct")
for n in (5, 10, 15, 20, 30, 60):
    direct = empirical_power(spec, n, n, 65536, seed=99)
    print(f" {n:3d}   {pc.ecdf(n):.3f}   {direct:.4f}")

# the recommendation brackets the target: one subject fewer per group
# would fall short
print(f"\npower at n = {pc.rec_n1 - 1}: "
      f"{empirical_power(spec, pc.rec_n1 - 1, pc.rec_n1 - 1, 65536, 99):.4f}")
print(f"power at n = {pc.rec_n1}: "
      f"{empirical_power(spec, pc.rec_n1, pc.rec_n1, 65536, 99):.4f}")

# unequal allocation works the same way: q = 1.5 assigns half again as
# many subjects to group 2, trading group-1 subjects for group-2 ones
lopsided = DesignSpec(mu_diff=-4.0, sigma1=18.0, sigma2=15.0,
                      delta_L=-19.2, delta_U=19.2, alpha=0.05, q=1.5)
pc_lop = power_curve(lopsided, target_power=0.8, m=1024, seed=2024)
print(f"\nwith q = 1.5: n1 = {pc_lop.rec_n1}, n2 = {pc_lop.rec_n2}")
