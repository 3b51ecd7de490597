// Fixture: execution entry points invoked under a live pool guard fire.

pub fn let_bound(pool: &Pool) {
    let guard = pool.lock();
    let rows = gather_f32(&guard, 0); //~ lock-hold-discipline
    decode_step(&rows); //~ lock-hold-discipline
    drop(guard);
}

pub fn temporary(pool: &Pool) {
    let _x = pool.lock().gather_f32(0); //~ lock-hold-discipline
}

pub fn gemm_under_guard(pool: &Pool, a: &[f32], b: &[f32]) {
    let mut guard = pool.lock();
    guard.touch();
    int8_matmul(a, b); //~ lock-hold-discipline
    eng.gemm(&g, out); //~ lock-hold-discipline
    eng.gemm_k_tiles(&g, 8, |_, _| {}); //~ lock-hold-discipline
}
