//! The Levi-language kernels (see crate docs for the behaviour each one
//! stresses); the assembly kernels live in `kernels_asm`.

use crate::{compile, rng_for, Scale, Workload, AUX1, AUX2, IN1, IN2, OUT};
use levioso_support::Rng;

/// Builds the full suite at the given scale, in stable report order.
pub fn suite(scale: Scale) -> Vec<Workload> {
    vec![
        filter_scan(scale),
        histogram(scale),
        pointer_chase(scale),
        binary_search(scale),
        hash_join(scale),
        partition(scale),
        stencil(scale),
        string_search(scale),
        crc32(scale),
        ct_mix(scale),
        crate::kernels_asm::guarded_call(scale),
        crate::kernels_asm::bytecode_interp(scale),
    ]
}

fn seeded_values(name: &str, n: usize, lo: i64, hi: i64) -> Vec<i64> {
    let mut rng = rng_for(name);
    (0..n).map(|_| rng.i64_in(lo..hi)).collect()
}

fn place(base: u64, values: &[i64]) -> impl Iterator<Item = (u64, i64)> + '_ {
    values.iter().enumerate().map(move |(i, &v)| (base + 8 * i as u64, v))
}

/// Database-style filtered aggregation: the canonical Levioso winner.
fn filter_scan(scale: Scale) -> Workload {
    let n = scale.n();
    let src = format!(
        r"
        arr a @ {IN1};
        arr out @ {OUT};
        const N = {n};
        fn main() {{
            let i = 0;
            let sum = 0;
            let cnt = 0;
            while (i < N) {{
                let v = a[i];
                if (v > 0) {{ sum = sum + v; cnt = cnt + 1; }}
                i = i + 1;
            }}
            out[0] = sum * 1000 + cnt;
        }}
        "
    );
    let data = seeded_values("filter_scan", n, -50, 51);
    Workload::new("filter_scan", compile("filter_scan", &src), place(IN1, &data).collect(), OUT)
}

/// Histogram: indirect updates, no data-dependent branches.
fn histogram(scale: Scale) -> Workload {
    let n = scale.n();
    let src = format!(
        r"
        arr a @ {IN1};
        arr h @ {AUX1};
        arr out @ {OUT};
        const N = {n};
        fn main() {{
            let i = 0;
            while (i < N) {{
                let b = a[i] & 63;
                h[b] = h[b] + 1;
                i = i + 1;
            }}
            let k = 0;
            let sum = 0;
            while (k < 64) {{
                sum = sum * 3 + h[k];
                k = k + 1;
            }}
            out[0] = sum;
        }}
        "
    );
    let data = seeded_values("histogram", n, 0, 1 << 30);
    Workload::new("histogram", compile("histogram", &src), place(IN1, &data).collect(), OUT)
}

/// Serial pointer chase (mcf-like): everyone suffers; Levioso cannot help
/// because the loop branch truly depends on the loaded value chain.
fn pointer_chase(scale: Scale) -> Workload {
    let n = scale.n();
    let hops = n / 2;
    let src = format!(
        r"
        arr next @ {IN1};
        arr out @ {OUT};
        const HOPS = {hops};
        fn main() {{
            let p = 0;
            let k = 0;
            let acc = 0;
            while (k < HOPS) {{
                p = next[p];
                acc = acc + p;
                k = k + 1;
            }}
            out[0] = acc * 7 + p + 1;
        }}
        "
    );
    // A single random cycle over all n nodes, spread across the array so
    // consecutive hops land on different cache lines.
    let mut rng = rng_for("pointer_chase");
    let mut perm: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = rng.usize_incl(0..=i);
        perm.swap(i, j);
    }
    let mut next = vec![0i64; n];
    for w in 0..n {
        next[perm[w]] = perm[(w + 1) % n] as i64;
    }
    Workload::new("pointer_chase", compile("pointer_chase", &src), place(IN1, &next).collect(), OUT)
}

/// Repeated binary searches over a sorted array.
fn binary_search(scale: Scale) -> Workload {
    let n = scale.n();
    let queries = n / 4;
    let src = format!(
        r"
        arr a @ {IN1};
        arr q @ {IN2};
        arr out @ {OUT};
        const N = {n};
        const Q = {queries};
        fn main() {{
            let k = 0;
            let acc = 0;
            while (k < Q) {{
                let key = q[k];
                let lo = 0;
                let hi = N - 1;
                while (lo < hi) {{
                    let mid = (lo + hi) / 2;
                    if (a[mid] < key) {{ lo = mid + 1; }} else {{ hi = mid; }}
                }}
                acc = acc + lo;
                k = k + 1;
            }}
            out[0] = acc + 1;
        }}
        "
    );
    let mut sorted = seeded_values("binary_search", n, 0, 1 << 40);
    sorted.sort_unstable();
    let queries_v = seeded_values("binary_search.q", queries, 0, 1 << 40);
    Workload::new(
        "binary_search",
        compile("binary_search", &src),
        place(IN1, &sorted).chain(place(IN2, &queries_v)).collect(),
        OUT,
    )
}

/// Hash-table probe with open addressing (join build side precomputed).
fn hash_join(scale: Scale) -> Workload {
    let n = scale.n();
    let hsize: usize = (2 * n).next_power_of_two();
    let src = format!(
        r"
        arr probe @ {IN1};
        arr ht_key @ {IN2};
        arr ht_val @ {AUX1};
        arr out @ {OUT};
        const N = {n};
        const HMASK = {hmask};
        fn main() {{
            let i = 0;
            let acc = 0;
            while (i < N) {{
                let k = probe[i];
                let slot = (k * 2654435761) & HMASK;
                let steps = 0;
                let done = 0;
                while (done == 0) {{
                    let hk = ht_key[slot];
                    if (hk == k) {{ acc = acc + ht_val[slot]; done = 1; }}
                    else {{
                        if (hk == 0) {{ done = 1; }}
                        else {{ slot = (slot + 1) & HMASK; }}
                    }}
                    steps = steps + 1;
                    if (steps > 64) {{ done = 1; }}
                }}
                i = i + 1;
            }}
            out[0] = acc + 1;
        }}
        ",
        hmask = hsize - 1,
    );
    // Build side: n/2 keys inserted with the same hash + linear probing.
    let mut rng = rng_for("hash_join");
    let build: Vec<i64> = (0..n / 2).map(|_| rng.i64_in(1i64..1 << 30)).collect();
    let mut ht_key = vec![0i64; hsize];
    let mut ht_val = vec![0i64; hsize];
    for &k in &build {
        let mut slot = (k.wrapping_mul(2654435761) as usize) & (hsize - 1);
        for _ in 0..hsize {
            if ht_key[slot] == 0 || ht_key[slot] == k {
                ht_key[slot] = k;
                ht_val[slot] = k & 0xffff;
                break;
            }
            slot = (slot + 1) & (hsize - 1);
        }
    }
    // Probe side: half hits, half misses.
    let probe: Vec<i64> = (0..n)
        .map(|i| if i % 2 == 0 { build[(i / 2) % build.len()] } else { rng.i64_in(1i64..1 << 30) })
        .collect();
    Workload::new(
        "hash_join",
        compile("hash_join", &src),
        place(IN1, &probe).chain(place(IN2, &ht_key)).chain(place(AUX1, &ht_val)).collect(),
        OUT,
    )
}

/// Partition step of quicksort/radix: branch-dependent store indices.
fn partition(scale: Scale) -> Workload {
    let n = scale.n();
    let src = format!(
        r"
        arr a @ {IN1};
        arr lo_out @ {AUX1};
        arr hi_out @ {AUX2};
        arr out @ {OUT};
        const N = {n};
        fn main() {{
            let i = 0;
            let lo = 0;
            let hi = 0;
            while (i < N) {{
                let v = a[i];
                if (v < 0) {{ lo_out[lo] = v; lo = lo + 1; }}
                else {{ hi_out[hi] = v; hi = hi + 1; }}
                i = i + 1;
            }}
            out[0] = lo * 100000 + hi + lo_out[0] + hi_out[0];
        }}
        "
    );
    let data = seeded_values("partition", n, -1000, 1000);
    Workload::new("partition", compile("partition", &src), place(IN1, &data).collect(), OUT)
}

/// 1-D 3-point stencil with boundary checks (predictable branches).
fn stencil(scale: Scale) -> Workload {
    let n = scale.n();
    let src = format!(
        r"
        arr a @ {IN1};
        arr b @ {AUX1};
        arr out @ {OUT};
        const N = {n};
        fn main() {{
            let i = 0;
            while (i < N) {{
                if (i == 0) {{ b[i] = a[i]; }}
                else {{
                    if (i == N - 1) {{ b[i] = a[i]; }}
                    else {{ b[i] = (a[i - 1] + a[i] + a[i + 1]) / 3; }}
                }}
                i = i + 1;
            }}
            let k = 0;
            let acc = 0;
            while (k < N) {{
                acc = acc + b[k] * (k & 7);
                k = k + 1;
            }}
            out[0] = acc + 1;
        }}
        "
    );
    let data = seeded_values("stencil", n, -10000, 10000);
    Workload::new("stencil", compile("stencil", &src), place(IN1, &data).collect(), OUT)
}

/// Naive substring search over a byte-like text.
fn string_search(scale: Scale) -> Workload {
    let n = scale.n();
    let plen = 6usize;
    let src = format!(
        r"
        arr text @ {IN1};
        arr pat @ {IN2};
        arr out @ {OUT};
        const N = {n};
        const M = {plen};
        fn main() {{
            let i = 0;
            let hits = 0;
            while (i < N - M) {{
                let j = 0;
                let ok = 1;
                while (j < M && ok == 1) {{
                    if (text[i + j] != pat[j]) {{ ok = 0; }}
                    j = j + 1;
                }}
                if (ok == 1) {{ hits = hits + 1; }}
                i = i + 1;
            }}
            out[0] = hits * 1000 + i;
        }}
        "
    );
    let mut rng = rng_for("string_search");
    let pat: Vec<i64> = (0..plen).map(|_| rng.i64_in(0i64..4)).collect();
    let mut text: Vec<i64> = (0..n).map(|_| rng.i64_in(0i64..4)).collect();
    // Plant a few guaranteed matches.
    for start in [n / 7, n / 3, n / 2, (4 * n) / 5] {
        text[start..start + plen].copy_from_slice(&pat);
    }
    Workload::new(
        "string_search",
        compile("string_search", &src),
        place(IN1, &text).chain(place(IN2, &pat)).collect(),
        OUT,
    )
}

/// Bitwise CRC over words: branches resolved by fast register compares.
fn crc32(scale: Scale) -> Workload {
    let n = scale.n() / 4;
    let src = format!(
        r"
        arr a @ {IN1};
        arr out @ {OUT};
        const N = {n};
        fn main() {{
            let i = 0;
            let crc = 0x12345678;
            while (i < N) {{
                let x = a[i];
                let b = 0;
                while (b < 8) {{
                    let bit = (crc ^ x) & 1;
                    crc = (crc >> 1) & 0x7fffffff;
                    if (bit == 1) {{ crc = crc ^ 0x6db88320; }}
                    x = (x >> 1) & 0x7fffffffffffffff;
                    b = b + 1;
                }}
                i = i + 1;
            }}
            out[0] = crc + 1;
        }}
        "
    );
    let data = seeded_values("crc32", n, 0, 1 << 50);
    Workload::new("crc32", compile("crc32", &src), place(IN1, &data).collect(), OUT)
}

/// Branchless ARX mixing (constant-time-crypto stand-in).
fn ct_mix(scale: Scale) -> Workload {
    let n = scale.n();
    let src = format!(
        r"
        arr a @ {IN1};
        arr out @ {OUT};
        const N = {n};
        fn main() {{
            let i = 0;
            let s = 0x243f6a8885a308;
            while (i < N) {{
                let v = a[i];
                s = (s + v) & 0x7fffffffffffffff;
                s = s ^ ((s << 13) & 0x7fffffffffffffff);
                s = s ^ ((s >> 7) & 0x7fffffffffffffff);
                s = s ^ ((s << 17) & 0x7fffffffffffffff);
                i = i + 1;
            }}
            out[0] = s + 1;
        }}
        "
    );
    let data = seeded_values("ct_mix", n, 0, 1 << 50);
    Workload::new("ct_mix", compile("ct_mix", &src), place(IN1, &data).collect(), OUT)
}
