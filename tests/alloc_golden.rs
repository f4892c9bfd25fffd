//! Golden digests of the allocator's output on functions with many values
//! live across calls.
//!
//! Each case compiles a generated program with tracing on and folds into
//! one FNV-1a digest the text `mini-cc --emit asm` prints, followed by
//! every `alloc.decision` event: the vreg, its location class, its
//! register and the exact bits of the priority density that decided it.
//! The generated function `wide` keeps `n` values live across calls in
//! straight-line code, in a loop block whose trip count depends on the
//! argument, and in a branch taken on two invocations in five; `n`
//! straddles 64-bit word boundaries. The configurations cover the
//! inter-procedural narrow clobber masks (`-O3`), the default wide masks
//! (`-O2 --no-shrink-wrap`), live-range splitting under register
//! starvation (`--target embedded8`) and a profile-guided compile, whose
//! non-dyadic block weights (11/5 and 2/5) make the floating-point
//! summation order of the priority function observable in the priority
//! bits.
//!
//! The digests pin the exact machine code and every priority: any change
//! to how live-across sets, interference or priorities are stored or
//! computed must reproduce them bit for bit.

use std::fmt::Write as _;

use ipra_core::config::AllocOptions;
use ipra_core::ipra::compile_module_with_profile;
use ipra_ir::Module;
use ipra_machine::Target;
use ipra_obs::TraceValue;
use ipra_sim::{run, SimOptions};

/// Sizes of the wide function: one short of, exactly at and one past a
/// word boundary, two words and a bit, and a size where the allocator's
/// tables dominate the compile.
const SIZES: [usize; 5] = [63, 64, 65, 130, 800];

/// FNV-1a over bytes.
fn fnv(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// A program whose `wide(a)` defines `n` values, calls the closed leaf
/// `tick` after every third one, then calls it again in a loop that runs
/// `(3a & 3) + 1` times and in a branch taken when `a` is odd, and finally
/// reads every value. `main` calls `wide` for `a` in `0..5`, so under a
/// profile the loop body weighs 11/5 and the branch 2/5 per invocation.
fn wide_source(n: usize) -> String {
    let mut s = String::new();
    s.push_str("global sink: int;\n");
    s.push_str("fn tick(x: int) -> int {\n    sink = sink + (x & 255);\n    return x + 1;\n}\n");
    s.push_str("fn wide(a: int) -> int {\n    var t: int = a;\n");
    for i in 0..n {
        let src = if i == 0 {
            "a".to_string()
        } else {
            format!("v{}", (i * 7 + 3) % i)
        };
        let op = ["+", "-", "^"][i % 3];
        let _ = writeln!(s, "    var v{i}: int = {src} {op} {};", (i * 37) % 997 + 1);
        if i % 3 == 2 {
            let _ = writeln!(s, "    t = tick(t + v{i});");
        }
    }
    let _ = writeln!(
        s,
        "    var j: int = 0;\n    while j < ((a * 3) & 3) + 1 {{\n        t = tick(t ^ v{}) + j;\n        j = j + 1;\n    }}",
        n / 2
    );
    let _ = writeln!(
        s,
        "    if (a & 1) == 1 {{\n        t = tick(t + v{});\n    }}",
        n - 1
    );
    s.push_str("    var s: int = t;\n");
    for i in 0..n {
        let op = ["+", "^"][i % 2];
        let _ = writeln!(s, "    s = s {op} v{i};");
    }
    s.push_str("    return s;\n}\n");
    s.push_str(
        "fn main() {\n    var acc: int = 0;\n    var i: int = 0;\n    while i < 5 {\n        acc = acc ^ wide(i);\n        i = i + 1;\n    }\n    print(acc);\n    print(sink);\n}\n",
    );
    s
}

/// The text `mini-cc --emit asm` prints for `module`, then one line per
/// `alloc.decision` event with the priority's bits in hex.
fn asm(
    module: &Module,
    target: &Target,
    opts: &AllocOptions,
    profile: Option<&[Vec<u64>]>,
) -> String {
    ipra_obs::enable();
    let compiled = compile_module_with_profile(module, target, opts, profile);
    let trace = ipra_obs::disable();
    let mut out = String::new();
    for (_, f) in compiled.mmodule.funcs.iter() {
        let _ = writeln!(out, "{}", f.display_in(&target.regs, &compiled.mmodule));
    }
    for e in trace.events.iter().filter(|e| e.name == "alloc.decision") {
        let _ = write!(out, "{}:", e.scope);
        for (k, v) in &e.fields {
            let _ = match v {
                TraceValue::Int(i) => write!(out, " {k}={i}"),
                TraceValue::Float(f) => write!(out, " {k}={:#x}", f.to_bits()),
                TraceValue::Str(s) => write!(out, " {k}={s}"),
            };
        }
        out.push('\n');
    }
    out
}

fn o2_no_shrink_wrap() -> AllocOptions {
    AllocOptions {
        shrink_wrap: false,
        ..AllocOptions::o2_shrink_wrap()
    }
}

/// Digest of one `(size, config)` case.
fn digest(n: usize, config: &str) -> u64 {
    let module = ipra_frontend::compile(&wide_source(n)).expect("generated source compiles");
    let text = match config {
        "O3" => asm(&module, &Target::mips_like(), &AllocOptions::o3(), None),
        "O2-no-sw" => asm(&module, &Target::mips_like(), &o2_no_shrink_wrap(), None),
        "embedded8" => asm(
            &module,
            &Target::by_name("embedded8").unwrap(),
            &AllocOptions::o3(),
            None,
        ),
        "O3-profile" => {
            // `mini-cc --profile-out` then `--profile-in`: train on the
            // plain -O3 code, recompile with its block counts.
            let target = Target::mips_like();
            let opts = AllocOptions::o3();
            let trained = compile_module_with_profile(&module, &target, &opts, None);
            let sim = SimOptions::for_target(&target.regs)
                .check_preservation(trained.clobber_masks.clone())
                .with_block_profile();
            let profile = run(&trained.mmodule, &target.regs, &sim)
                .expect("training run succeeds")
                .block_profile
                .expect("profile requested");
            asm(&module, &target, &opts, Some(&profile))
        }
        other => unreachable!("unknown config {other}"),
    };
    fnv(text.as_bytes())
}

/// `(n, config, digest)`, recorded before the allocator's live-across
/// sets moved from per-range call lists to per-call-site bit rows.
const GOLDEN: [(usize, &str, u64); 20] = [
    (63, "O3", 0xbb29bf85f4135f64),
    (63, "O2-no-sw", 0x5e966d5d33f9831a),
    (63, "embedded8", 0x228dc4a5be1651a2),
    (63, "O3-profile", 0x432ec6ffac92cd25),
    (64, "O3", 0x782d6531c161efaa),
    (64, "O2-no-sw", 0xc756920b17c5501e),
    (64, "embedded8", 0x9290160506283998),
    (64, "O3-profile", 0xbd10e2c216714052),
    (65, "O3", 0x7acda59c51ecb897),
    (65, "O2-no-sw", 0x31e01694c072d492),
    (65, "embedded8", 0x6e9b88e09b7ba5d8),
    (65, "O3-profile", 0x9a696f7db53b30e0),
    (130, "O3", 0xfae7077c8ee4a7cd),
    (130, "O2-no-sw", 0x93aff35fed8b58b8),
    (130, "embedded8", 0x296f1858fee6832c),
    (130, "O3-profile", 0x204e114c8f3ae6d9),
    (800, "O3", 0x4175a436f6663eb4),
    (800, "O2-no-sw", 0x109afc7c9bcb2128),
    (800, "embedded8", 0x7e5f825b6c6ed99a),
    (800, "O3-profile", 0x7bd86b4e1e507244),
];

fn check(n: usize) {
    let mut diffs = Vec::new();
    for &(gn, config, want) in GOLDEN.iter().filter(|g| g.0 == n) {
        let got = digest(gn, config);
        if got != want {
            diffs.push(format!("({gn}, \"{config}\", {got:#018x}),"));
        }
    }
    assert!(diffs.is_empty(), "asm digests moved:\n{}", diffs.join("\n"));
}

#[test]
fn generated_sources_parse_and_run_identically_at_every_size() {
    for n in SIZES {
        let module = ipra_frontend::compile(&wide_source(n)).expect("generated source compiles");
        let want = ipra_ir::interp::run_module(&module)
            .expect("interpreter runs")
            .output;
        let target = Target::mips_like();
        let compiled = compile_module_with_profile(&module, &target, &AllocOptions::o3(), None);
        let sim = SimOptions::for_target(&target.regs).check_preservation(compiled.clobber_masks);
        let got = run(&compiled.mmodule, &target.regs, &sim).expect("sim runs");
        assert_eq!(got.output, want, "n={n}");
    }
}

#[test]
fn asm_is_pinned_at_63_values() {
    check(63);
}

#[test]
fn asm_is_pinned_at_64_values() {
    check(64);
}

#[test]
fn asm_is_pinned_at_65_values() {
    check(65);
}

#[test]
fn asm_is_pinned_at_130_values() {
    check(130);
}

#[test]
fn asm_is_pinned_at_800_values() {
    check(800);
}

#[test]
fn every_size_has_every_config() {
    for n in SIZES {
        let configs: Vec<_> = GOLDEN.iter().filter(|g| g.0 == n).map(|g| g.1).collect();
        assert_eq!(
            configs,
            ["O3", "O2-no-sw", "embedded8", "O3-profile"],
            "n={n}"
        );
    }
}
