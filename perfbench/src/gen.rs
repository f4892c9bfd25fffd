//! Seeded input generators. Every workload input is a Mini source string
//! built here from `--seed`; the program under test never sees the seed.

use std::fmt::Write as _;

use ipra_workloads::synth::{shaped_source, ShapeClass, ShapeConfig, XorShift64Star};

/// One input program.
#[derive(Clone, Debug)]
pub struct Program {
    /// Stable label (corpus name, ladder size, pool index).
    pub name: String,
    /// Mini source text.
    pub source: String,
}

/// Values per function on the `wide-frames` ladder. An odd number of
/// equally weighted sizes keeps the median inside one size's cluster.
pub const WIDE_SIZES: [usize; 5] = [200, 400, 800, 1200, 1600];
/// `main`'s loop count around the wide function.
pub const WIDE_ITERS: usize = 8;
/// Edited variants per corpus program on `edit-rebuild`.
pub const EDITS_PER_PROGRAM: usize = 4;
/// Edited corpus programs in the `daemon-mixed` pool.
pub const DAEMON_EDITS: usize = 96;
/// Fresh `shaped_source` programs in the `daemon-mixed` pool.
pub const DAEMON_FRESH: usize = 224;

/// The fixed seed of every input's structure: where the calls are, which
/// values an operand reads, what kind of edit is made where. `--seed`
/// picks only constants and operators, which do not change the code's
/// size or its dynamic counts, so `sim_cycles`, `penalty_cycles` and
/// `code_insts` are the same for every seed.
const SHAPE_SEED: u64 = 0x1BE5_C0DE;

/// A generator stream for one purpose, decorrelated from the others
/// drawn from the same seed.
pub fn rng(seed: u64, stream: u64) -> XorShift64Star {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    XorShift64Star::new(z ^ (z >> 31))
}

/// Shuffles `v` in place (Fisher–Yates).
pub fn shuffle<T>(v: &mut [T], rng: &mut XorShift64Star) {
    for i in (1..v.len()).rev() {
        let j = rng.below(i as u64 + 1) as usize;
        v.swap(i, j);
    }
}

/// The paper's 13 Table-1 analogs.
pub fn corpus() -> Vec<Program> {
    ipra_workloads::all()
        .into_iter()
        .map(|w| Program {
            name: w.name.to_string(),
            source: w.source.to_string(),
        })
        .collect()
}

/// A program whose function `wide` defines `n` values, calls a small
/// closed leaf after `3n/4` of them (so the spacing between calls
/// varies), and uses every value after the last call, so each value stays
/// live across every later call. `main` calls `wide` [`WIDE_ITERS`]
/// times. `shape` places the calls and picks each value's operand;
/// `values` picks the constants and operators.
pub fn wide_source(n: usize, shape: &mut XorShift64Star, values: &mut XorShift64Star) -> String {
    let n_calls = n * 3 / 4;
    let mut calls = vec![false; n];
    for c in calls.iter_mut().take(n_calls) {
        *c = true;
    }
    shuffle(&mut calls, shape);

    let mut s = String::new();
    let _ = writeln!(s, "// wide-frames: {n} values, {n_calls} calls");
    s.push_str("global sink: int;\n");
    s.push_str("fn tick(x: int) -> int {\n    sink = sink + (x & 255);\n    return x + 1;\n}\n");
    s.push_str("fn wide(a: int) -> int {\n    var t: int = a;\n");
    for (i, &call) in calls.iter().enumerate() {
        let src = if i == 0 {
            "a".to_string()
        } else {
            format!("v{}", shape.below(i as u64))
        };
        let op = ["+", "-", "^"][values.below(3) as usize];
        let _ = writeln!(
            s,
            "    var v{i}: int = {src} {op} {};",
            values.range_i64(1, 999)
        );
        if call {
            let _ = writeln!(s, "    t = tick(t + v{i});");
        }
    }
    s.push_str("    var s: int = t;\n");
    for i in 0..n {
        let op = ["+", "^"][values.below(2) as usize];
        let _ = writeln!(s, "    s = s {op} v{i};");
    }
    s.push_str("    return s;\n}\n");
    let _ = write!(
        s,
        "fn main() {{\n    var acc: int = 0;\n    var i: int = 0;\n    while i < {WIDE_ITERS} {{\n        acc = acc ^ wide(i);\n        i = i + 1;\n    }}\n    print(acc);\n    print(sink);\n}}\n"
    );
    s
}

/// The `wide-frames` inputs: one program per [`WIDE_SIZES`] entry.
pub fn wide_ladder(seed: u64) -> Vec<Program> {
    WIDE_SIZES
        .iter()
        .enumerate()
        .map(|(i, &n)| {
            let stream = 100 + i as u64;
            Program {
                name: format!("wide-{n}"),
                source: wide_source(n, &mut rng(SHAPE_SEED, stream), &mut rng(seed, stream)),
            }
        })
        .collect()
}

/// A single-function edit that keeps the program's output: either an
/// appended, uncalled function or a dead local at the top of one
/// existing function. `shape` picks the kind of edit and the function;
/// `values` picks the constant.
pub fn edit(
    src: &str,
    tag: usize,
    shape: &mut XorShift64Star,
    values: &mut XorShift64Star,
) -> String {
    let k = values.range_i64(2, 9999);
    if shape.coin() {
        return format!(
            "{src}\nfn bench_edit_{tag}(x: int) -> int {{\n    return x * {k} + {tag};\n}}\n"
        );
    }
    // Function headers sit at column 0 and end with the body's `{`.
    let mut offsets = Vec::new();
    let mut at = 0;
    for line in src.split_inclusive('\n') {
        if line.starts_with("fn ") && line.trim_end().ends_with('{') {
            offsets.push(at + line.len());
        }
        at += line.len();
    }
    let pos = offsets[shape.below(offsets.len() as u64) as usize];
    let mut out = String::with_capacity(src.len() + 48);
    out.push_str(&src[..pos]);
    let _ = writeln!(out, "    var bench_edit_{tag}: int = {k};");
    out.push_str(&src[pos..]);
    out
}

/// `per_program` edited variants of each program, as
/// `(index into programs, edited program)`, ordered round-robin over the
/// programs. Variant `v` of a program is the same edit for every seed;
/// the seed changes its constant.
pub fn edits(
    programs: &[Program],
    per_program: usize,
    seed: u64,
    stream: u64,
) -> Vec<(usize, Program)> {
    let (mut shape, mut values) = (rng(SHAPE_SEED, stream), rng(seed, stream));
    let mut out = Vec::new();
    for v in 0..per_program {
        for (p, prog) in programs.iter().enumerate() {
            let tag = out.len();
            out.push((
                p,
                Program {
                    name: format!("{}+edit{v}", prog.name),
                    source: edit(&prog.source, tag, &mut shape, &mut values),
                },
            ));
        }
    }
    out
}

/// `count` fresh shaped programs, cycling through every shape class.
pub fn shaped_pool(seed: u64, count: usize) -> Vec<Program> {
    let mut r = rng(seed, 300);
    (0..count)
        .map(|i| {
            let class = ShapeClass::ALL[i % ShapeClass::ALL.len()];
            let s = r.next_u64();
            Program {
                name: format!("{class}-{i}"),
                source: shaped_source(s, &ShapeConfig::new(class)),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic_and_parse() {
        let a = wide_ladder(7);
        let b = wide_ladder(7);
        assert!(a.iter().zip(&b).all(|(x, y)| x.source == y.source));
        assert_ne!(a[0].source, wide_ladder(8)[0].source);
        ipra_frontend::compile(&a[0].source).expect("wide source parses");
        for (_, e) in edits(&corpus(), 2, 3, 200) {
            ipra_frontend::compile(&e.source).expect("edited source parses");
        }
    }
}
