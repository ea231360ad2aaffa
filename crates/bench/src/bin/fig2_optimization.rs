//! Regenerates Fig. 2: local vs. global optimization on the paper's two
//! illustrative objectives.

use coverme_optim::{BasinHopping, FnObjective, LocalMethod, Powell};

fn main() {
    // Fig. 2(a): lambda x. x <= 1 ? 0 : (x-1)^2 — a local method suffices.
    let fa = |p: &[f64]| {
        if p[0] <= 1.0 {
            0.0
        } else {
            (p[0] - 1.0).powi(2)
        }
    };
    let local = Powell::new().minimize_objective(&mut FnObjective(fa), &[5.0]);
    println!(
        "Fig 2(a): Powell from x0=5.0      -> x* = {:.6}, f(x*) = {:.3e} ({} evals)",
        local.x[0], local.value, local.stats.evaluations
    );

    // Fig. 2(b): lambda x. x <= 1 ? ((x+1)^2-4)^2 : (x^2-4)^2 — needs MCMC.
    let fb = |p: &[f64]| {
        let x = p[0];
        if x <= 1.0 {
            ((x + 1.0).powi(2) - 4.0).powi(2)
        } else {
            (x * x - 4.0).powi(2)
        }
    };
    let trapped = Powell::new().minimize_objective(&mut FnObjective(fb), &[-8.0]);
    println!(
        "Fig 2(b): Powell only from x0=-8  -> x* = {:.6}, f(x*) = {:.3e}  (may be a local minimum)",
        trapped.x[0], trapped.value
    );
    let global = BasinHopping::new()
        .iterations(30)
        .local_method(LocalMethod::Powell)
        .seed(7)
        .minimize_objective(&mut FnObjective(fb), &[-8.0]);
    println!(
        "Fig 2(b): Basinhopping (MCMC)     -> x* = {:.6}, f(x*) = {:.3e}  (global minimum reached: {})",
        global.x[0],
        global.value,
        global.value < 1e-8
    );
}
