// Fixture: each libm transcendental shape fires.

pub fn methods(x: f32, y: f64) -> f32 {
    let a = x.exp(); //~ libm-transcendental
    let b = (x * 0.5).tanh(); //~ libm-transcendental
    let c = x.exp_m1() + x.ln(); //~ libm-transcendental //~ libm-transcendental
    let d = y.ln_1p() as f32; //~ libm-transcendental
    let e = x.sin() * x.cos(); //~ libm-transcendental //~ libm-transcendental
    a + b + c + d + e
}

pub fn paths(xs: &[f32]) -> Vec<f32> {
    let f = f32::tanh; //~ libm-transcendental
    xs.iter().map(|&x| f(x) + f64::exp(x as f64) as f32).collect() //~ libm-transcendental
}
