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
//! A second program, `wide3`, interleaves calls to three closed leaves
//! whose register footprints differ and overlap, so one function sees
//! several distinct clobber patterns: its call costs differ between
//! registers clobbered by different subsets of its call sites.
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

/// Sizes of the three-callee function: past a word boundary, and the size
/// where the allocator's tables dominate the compile.
const SIZES3: [usize; 2] = [65, 800];

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

/// Like [`wide_source`], but `wide` calls three closed leaves in turn:
/// `tick` (one temporary), `tock` (a few) and `tack` (several), so under
/// `-O3` each leaf clobbers a different, overlapping register set. The
/// straight-line calls rotate through all three, widest first, so each
/// narrower leaf's first call clobbers only part of the registers the
/// calls before it clobbered. The loop alternates `tock` and `tick`, and
/// the branch calls `tack`.
fn wide3_source(n: usize) -> String {
    let mut s = String::new();
    s.push_str("global sink: int;\n");
    s.push_str("fn tick(x: int) -> int {\n    sink = sink + (x & 255);\n    return x + 1;\n}\n");
    s.push_str(
        "fn tock(x: int, y: int) -> int {\n    var p: int = x * 3;\n    var q: int = y ^ p;\n    var r: int = p + q;\n    sink = sink ^ (r & 1023);\n    return r - x;\n}\n",
    );
    s.push_str(
        "fn tack(x: int, y: int, z: int) -> int {\n    var p: int = x + y;\n    var q: int = y - z;\n    var r: int = p * q;\n    var u: int = r ^ x;\n    var w: int = u + p * z;\n    sink = sink + (w & 511) + (q & 7);\n    return (w ^ r) & 65535;\n}\n",
    );
    s.push_str("fn wide(a: int) -> int {\n    var t: int = a;\n");
    for i in 0..n {
        let src = if i == 0 {
            "a".to_string()
        } else {
            format!("v{}", (i * 7 + 3) % i)
        };
        let op = ["+", "-", "^"][i % 3];
        let _ = writeln!(s, "    var v{i}: int = {src} {op} {};", (i * 37) % 997 + 1);
        match i % 9 {
            2 => {
                let _ = writeln!(s, "    t = tack(t, v{i}, a);");
            }
            5 => {
                let _ = writeln!(s, "    t = tock(t, v{i});");
            }
            8 => {
                let _ = writeln!(s, "    t = tick(t + v{i});");
            }
            _ => {}
        }
    }
    let _ = writeln!(
        s,
        "    var j: int = 0;\n    while j < ((a * 3) & 3) + 1 {{\n        t = tock(t, v{}) + j;\n        t = tick(t ^ j);\n        j = j + 1;\n    }}",
        n / 2
    );
    let _ = writeln!(
        s,
        "    if (a & 1) == 1 {{\n        t = tack(t, v{}, a);\n    }}",
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

/// Digest of one `(source, config)` case.
fn digest(source: &str, config: &str) -> u64 {
    let module = ipra_frontend::compile(source).expect("generated source compiles");
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
        let got = digest(&wide_source(gn), config);
        if got != want {
            diffs.push(format!("({gn}, \"{config}\", {got:#018x}),"));
        }
    }
    assert!(diffs.is_empty(), "asm digests moved:\n{}", diffs.join("\n"));
}

/// `(n, config, digest)` for [`wide3_source`], recorded before the
/// call-cost table was grouped by clobber pattern.
const GOLDEN3: [(usize, &str, u64); 8] = [
    (65, "O3", 0x3cb9bf7aa36cf623),
    (65, "O2-no-sw", 0xb91c9438131772e9),
    (65, "embedded8", 0xfd495149241f6447),
    (65, "O3-profile", 0xca7f8a3020725e68),
    (800, "O3", 0xaae3e54f60962b8f),
    (800, "O2-no-sw", 0x0dce3b689119a817),
    (800, "embedded8", 0xebe5ccce6f71718f),
    (800, "O3-profile", 0xba7aa8cfcdf89036),
];

#[test]
fn generated_sources_parse_and_run_identically_at_every_size() {
    let sources = SIZES
        .iter()
        .map(|&n| (n, wide_source(n)))
        .chain(SIZES3.map(|n| (n, wide3_source(n))));
    for (n, source) in sources {
        let module = ipra_frontend::compile(&source).expect("generated source compiles");
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
fn asm_is_pinned_with_three_callees() {
    let mut diffs = Vec::new();
    for &(n, config, want) in &GOLDEN3 {
        let got = digest(&wide3_source(n), config);
        if got != want {
            diffs.push(format!("({n}, \"{config}\", {got:#018x}),"));
        }
    }
    assert!(diffs.is_empty(), "asm digests moved:\n{}", diffs.join("\n"));
}

/// Under `-O3` the three leaves of `wide3` clobber three different
/// register sets, each overlapping another, so `wide` prices several
/// clobber patterns.
#[test]
fn three_callees_clobber_different_overlapping_sets() {
    let module = ipra_frontend::compile(&wide3_source(SIZES3[0])).expect("compiles");
    let compiled =
        compile_module_with_profile(&module, &Target::mips_like(), &AllocOptions::o3(), None);
    let mask = |name: &str| {
        let f = module.func_by_name(name).expect("leaf exists");
        compiled.clobber_masks[f.index()]
    };
    let (tick, tock, tack) = (mask("tick"), mask("tock"), mask("tack"));
    assert!(
        tick != tock && tock != tack && tick != tack,
        "{tick:?} {tock:?} {tack:?}"
    );
    assert!(!tick.intersect(tock).is_empty() && !tock.intersect(tack).is_empty());
}

#[test]
fn every_size_has_every_config() {
    let sizes = SIZES.iter().map(|&n| (n, &GOLDEN[..]));
    for (n, golden) in sizes.chain(SIZES3.iter().map(|&n| (n, &GOLDEN3[..]))) {
        let configs: Vec<_> = golden.iter().filter(|g| g.0 == n).map(|g| g.1).collect();
        assert_eq!(
            configs,
            ["O3", "O2-no-sw", "embedded8", "O3-profile"],
            "n={n}"
        );
    }
}
