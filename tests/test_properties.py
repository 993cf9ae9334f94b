"""Property tests: random generated kernels under every policy and arch.

Each example compiles one `generate_synthetic_kernel` output and runs it
in debug mode, so every epoch also re-checks the admission invariants.
The runs use a one-SM copy of each architecture: the launch is then one
SM replica, and the result's cycle totals are the sums over its epochs.
"""

from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from smvirt.engine import run
from smvirt.kernel_model import Profile, generate_synthetic_kernel
from smvirt.phase_compiler import annotate_phases
from smvirt.resource_maps import get_arch

ONE_SM_ARCHS = {
    name: replace(get_arch(name), num_sms=1) for name in ("fermi", "kepler", "maxwell")
}


@settings(max_examples=1000, deadline=None, derandomize=True, database=None)
@given(
    profile=st.sampled_from(list(Profile)),
    length=st.integers(min_value=1, max_value=64),
    seed=st.integers(min_value=0, max_value=2**16),
    policy=st.sampled_from(["baseline", "wlm", "zorua"]),
    arch=st.sampled_from(sorted(ONE_SM_ARCHS)),
)
def test_random_kernel_runs_to_completion_with_exact_accounting(
    profile, length, seed, policy, arch
):
    kernel = annotate_phases(generate_synthetic_kernel(profile, length, seed))
    # terminating at all is the first property: a wedge or a cycle-cap
    # overrun raises, and so does a broken invariant in debug mode
    res = run(kernel, policy, ONE_SM_ARCHS[arch], debug=True)
    spec = kernel.resource_spec
    assert res.issued_instructions == spec.num_blocks * spec.warps_per_block * len(kernel.body)
    assert res.issued_instructions == sum(e.issued_instructions for e in res.epochs)
    assert res.issued_cycles + res.c_mem + res.c_idle + res.barrier_stall == sum(
        e.span for e in res.epochs
    )
