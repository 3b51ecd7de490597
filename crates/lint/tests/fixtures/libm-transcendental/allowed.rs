// Fixture: allowed sites, test code, correctly rounded operations and
// look-alike names pass.

pub fn allowed(u: f32) -> f32 {
    // lint: allow(libm-transcendental) -- fixture: exercising the per-site allow
    -(1.0 - u).ln()
}

pub fn exact(x: f32, e: i32) -> f32 {
    // sqrt and mul_add are correctly rounded; exp2/log2 are not flagged.
    x.sqrt().mul_add(2.0, (e as f32).exp2()) + x.log2()
}

pub fn look_alikes(exp: f32, tanh: fn(f32) -> f32) -> f32 {
    // A binding or field named like a function is not a libm call.
    let ln = exp * 2.0;
    tanh(ln) + exp
}

#[cfg(test)]
mod tests {
    #[test]
    fn provenance() {
        assert_eq!(0.0f32.exp(), 1.0);
    }
}
