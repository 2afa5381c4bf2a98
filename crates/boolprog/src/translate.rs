use std::collections::HashMap;

use cuba_core::Property;
use cuba_pds::{Cpds, CpdsBuilder, PdsBuilder, SharedState, StackSym};

use crate::ast::{Expr, Program, Type};
use crate::cfg::{lower_function, Effect, FunctionCfg};
use crate::lint::{simplify_cfg, SourceLint};
use crate::resolve::{resolve, Resolved};
use crate::BoolProgError;

/// Size guardrails for the valuation enumeration.
const MAX_GLOBALS: usize = 12;
const MAX_LOCALS: usize = 8;
const MAX_SYMBOLS: u64 = 200_000;

/// Result of translating a Boolean program to a CPDS.
#[derive(Debug, Clone)]
pub struct Translated {
    /// The concurrent pushdown system (one thread per `thread_create`
    /// in `main`, in order).
    pub cpds: Cpds,
    /// The absorbing shared state entered by failed assertions.
    pub error_state: SharedState,
    /// Global variable names (index = bit position in the shared
    /// state encoding).
    pub globals: Vec<String>,
    /// Whether the implicit `$lock` bit was appended to the globals.
    pub has_lock_bit: bool,
    /// Whether the implicit `$ret` bit was appended to the globals.
    pub has_ret_bit: bool,
    /// Per function: the base stack-symbol id and local-variable names
    /// (for decoding stack symbols in diagnostics).
    pub functions: Vec<FunctionLayout>,
}

/// Stack-symbol layout of one function.
#[derive(Debug, Clone)]
pub struct FunctionLayout {
    /// Function name.
    pub name: String,
    /// First stack-symbol id of this function.
    pub base: u32,
    /// Number of program points.
    pub num_points: usize,
    /// Local variable names (parameters first).
    pub locals: Vec<String>,
}

impl Translated {
    /// The property "no assertion ever fails".
    pub fn error_free_property(&self) -> Property {
        Property::never_shared(self.error_state)
    }

    /// Decodes a stack symbol to `(function, program point, locals)`.
    pub fn describe_symbol(&self, sym: StackSym) -> Option<(String, usize, u32)> {
        for layout in self.functions.iter().rev() {
            if sym.0 >= layout.base {
                let offset = sym.0 - layout.base;
                let width = 1u32 << layout.locals.len();
                return Some((
                    layout.name.clone(),
                    (offset / width) as usize,
                    offset % width,
                ));
            }
        }
        None
    }
}

/// What the pre-translation simplification pass did to a program.
#[derive(Debug, Clone, Default)]
pub struct SimplifyReport {
    /// Source-level findings from the simplification (dead branches,
    /// constant asserts).
    pub lints: Vec<SourceLint>,
}

/// Translates a parsed Boolean program into a [`Cpds`].
///
/// Encoding (see the crate docs): shared state = global valuation in
/// `0..2^G` plus the absorbing error state `2^G`; stack symbol =
/// `base(f) + point·2^L + locals`. Non-parameter locals start `0`;
/// assign `*` explicitly for a nondeterministic start. Globals start
/// `0` as well — model nondeterministic initialization as the paper's
/// Fig. 2 does, with an initializing first statement.
///
/// # Errors
///
/// Propagates resolution errors and rejects programs whose valuation
/// spaces exceed the guardrails ([`BoolProgError::TooLarge`]).
pub fn translate(program: &Program) -> Result<Translated, BoolProgError> {
    translate_inner(program, false).map(|(t, _)| t)
}

/// Like [`translate`], but runs [`simplify_cfg`] on every lowered
/// function first, so transitions that could never fire (constant-false
/// branches, unreachable code) are not emitted at all. The stack-symbol
/// layout is unchanged — simplification never renumbers program points
/// — so reachable behavior, and hence any verdict over the translated
/// system, is preserved.
///
/// # Errors
///
/// Same failure modes as [`translate`].
pub fn translate_simplified(
    program: &Program,
) -> Result<(Translated, SimplifyReport), BoolProgError> {
    translate_inner(program, true)
}

fn translate_inner(
    program: &Program,
    simplify: bool,
) -> Result<(Translated, SimplifyReport), BoolProgError> {
    let resolved = resolve(program)?;
    if resolved.thread_entries.is_empty() {
        return Err(BoolProgError::resolve(
            Default::default(),
            "main creates no threads",
        ));
    }

    // Shared-state layout: user globals, then $lock, then $ret.
    let mut globals = resolved.globals.clone();
    let lock_bit = resolved.uses_lock.then(|| {
        globals.push("$lock".to_owned());
        globals.len() - 1
    });
    let ret_bit = resolved.uses_ret.then(|| {
        globals.push("$ret".to_owned());
        globals.len() - 1
    });
    if globals.len() > MAX_GLOBALS {
        return Err(BoolProgError::TooLarge(format!(
            "{} global bits (max {MAX_GLOBALS})",
            globals.len()
        )));
    }
    let num_valuations: u32 = 1 << globals.len();
    let error_state = SharedState(num_valuations);
    let num_shared = num_valuations + 1;

    // Lower every function except main; compute the symbol layout.
    let mut cfgs: Vec<Option<FunctionCfg>> = Vec::new();
    let mut layouts: Vec<FunctionLayout> = Vec::new();
    let mut bases: HashMap<String, (u32, usize)> = HashMap::new(); // name -> (base, func idx)
    let mut next_base: u64 = 0;
    let mut report = SimplifyReport::default();
    for (i, f) in program.funcs.iter().enumerate() {
        if f.name == "main" {
            cfgs.push(None);
            continue;
        }
        if resolved.locals[i].len() > MAX_LOCALS {
            return Err(BoolProgError::TooLarge(format!(
                "function '{}' has {} locals (max {MAX_LOCALS})",
                f.name,
                resolved.locals[i].len()
            )));
        }
        let mut cfg = lower_function(f)?;
        if simplify {
            let outcome = simplify_cfg(&cfg);
            cfg = outcome.cfg;
            report.lints.extend(outcome.lints);
        }
        let width = 1u64 << resolved.locals[i].len();
        let base = next_base;
        next_base += cfg.num_points as u64 * width;
        if next_base > MAX_SYMBOLS {
            return Err(BoolProgError::TooLarge(format!(
                "stack alphabet exceeds {MAX_SYMBOLS} symbols"
            )));
        }
        bases.insert(f.name.clone(), (base as u32, i));
        layouts.push(FunctionLayout {
            name: f.name.clone(),
            base: base as u32,
            num_points: cfg.num_points,
            locals: resolved.locals[i].clone(),
        });
        cfgs.push(Some(cfg));
    }
    let alphabet_size = next_base as u32;

    let ctx = Translator {
        program,
        resolved: &resolved,
        globals: &globals,
        lock_bit,
        ret_bit,
        error_state,
        bases: &bases,
    };

    // All threads share one PDS containing the whole program's code.
    let mut pds = PdsBuilder::new(num_shared, alphabet_size.max(1));
    for (i, cfg) in cfgs.iter().enumerate() {
        let Some(cfg) = cfg else { continue };
        ctx.emit_function(&mut pds, i, cfg)?;
    }
    let pds = pds
        .build()
        .map_err(|e| BoolProgError::TooLarge(e.to_string()))?;

    let mut builder = CpdsBuilder::new(num_shared, SharedState(0));
    for entry in &resolved.thread_entries {
        let (base, fi) = bases[entry];
        let width = 1u32 << resolved.locals[fi].len();
        // Entry symbol: point 0, all locals 0.
        let _ = width;
        builder = builder.thread(pds.clone(), [StackSym(base)]);
    }
    let cpds = builder
        .build()
        .map_err(|e| BoolProgError::TooLarge(e.to_string()))?;

    report.lints.sort_by_key(|l| (l.span.line, l.span.col));
    Ok((
        Translated {
            cpds,
            error_state,
            globals: resolved.globals.clone(),
            has_lock_bit: lock_bit.is_some(),
            has_ret_bit: ret_bit.is_some(),
            functions: layouts,
        },
        report,
    ))
}

struct Translator<'a> {
    program: &'a Program,
    resolved: &'a Resolved,
    globals: &'a [String],
    lock_bit: Option<usize>,
    ret_bit: Option<usize>,
    error_state: SharedState,
    bases: &'a HashMap<String, (u32, usize)>,
}

impl Translator<'_> {
    fn emit_function(
        &self,
        pds: &mut PdsBuilder,
        func_idx: usize,
        cfg: &FunctionCfg,
    ) -> Result<(), BoolProgError> {
        let func = &self.program.funcs[func_idx];
        let locals = &self.resolved.locals[func_idx];
        let width = 1u32 << locals.len();
        let (base, _) = self.bases[&func.name];
        let sym = |point: usize, lvals: u32| StackSym(base + point as u32 * width + lvals);

        for g in 0..(1u32 << self.globals.len()) {
            for l in 0..width {
                let env = Env {
                    globals: self.globals,
                    locals,
                    g,
                    l,
                };
                for edge in &cfg.edges {
                    let from = sym(edge.from, l);
                    match &edge.effect {
                        Effect::Skip => {
                            pds.overwrite(SharedState(g), from, SharedState(g), sym(edge.to, l))
                                .expect("ids in range");
                        }
                        Effect::Assume(e) => {
                            if env.can_be(e, true) {
                                pds.overwrite(
                                    SharedState(g),
                                    from,
                                    SharedState(g),
                                    sym(edge.to, l),
                                )
                                .expect("ids in range");
                            }
                        }
                        Effect::AssumeNot(e) => {
                            if env.can_be(e, false) {
                                pds.overwrite(
                                    SharedState(g),
                                    from,
                                    SharedState(g),
                                    sym(edge.to, l),
                                )
                                .expect("ids in range");
                            }
                        }
                        Effect::Assert(e) => {
                            if env.can_be(e, false) {
                                pds.overwrite(SharedState(g), from, self.error_state, from)
                                    .expect("ids in range");
                            }
                            if env.can_be(e, true) {
                                pds.overwrite(
                                    SharedState(g),
                                    from,
                                    SharedState(g),
                                    sym(edge.to, l),
                                )
                                .expect("ids in range");
                            }
                        }
                        Effect::Assign {
                            targets,
                            values,
                            constrain,
                        } => {
                            for (g2, l2) in env.assign_outcomes(targets, values, constrain) {
                                pds.overwrite(
                                    SharedState(g),
                                    from,
                                    SharedState(g2),
                                    sym(edge.to, l2),
                                )
                                .expect("ids in range");
                            }
                        }
                        Effect::Call { func: callee, args } => {
                            let (callee_base, callee_idx) = self.bases[callee];
                            let callee_locals = &self.resolved.locals[callee_idx];
                            for arg_vals in env.arg_tuples(args) {
                                // Parameters first, other locals 0.
                                let mut lv = 0u32;
                                for (i, v) in arg_vals.iter().enumerate() {
                                    if *v {
                                        lv |= 1 << i;
                                    }
                                }
                                debug_assert!(arg_vals.len() <= callee_locals.len());
                                pds.push(
                                    SharedState(g),
                                    from,
                                    SharedState(g),
                                    StackSym(callee_base + lv),
                                    sym(edge.to, l),
                                )
                                .expect("ids in range");
                            }
                        }
                        Effect::ReadRet(target) => {
                            let ret = self.ret_bit.expect("ReadRet implies the $ret bit exists");
                            let v = (g >> ret) & 1 == 1;
                            let (g2, l2) = env.write_var(target, v);
                            pds.overwrite(SharedState(g), from, SharedState(g2), sym(edge.to, l2))
                                .expect("ids in range");
                        }
                        Effect::Return(expr) => {
                            match expr {
                                Some(e) => {
                                    let ret =
                                        self.ret_bit.expect("return value implies the $ret bit");
                                    for v in env.values(e) {
                                        let g2 = set_bit(g, ret, v);
                                        pds.pop(SharedState(g), from, SharedState(g2))
                                            .expect("ids in range");
                                    }
                                }
                                None => {
                                    pds.pop(SharedState(g), from, SharedState(g))
                                        .expect("ids in range");
                                }
                            }
                            // A bool function falling off the end would
                            // leave $ret stale; resolve() guarantees an
                            // explicit return in bool functions is the
                            // only way to publish a value.
                            let _ = func.ty == Type::Bool;
                        }
                        Effect::Lock => {
                            let lock = self.lock_bit.expect("Lock implies the $lock bit");
                            if (g >> lock) & 1 == 0 {
                                let g2 = set_bit(g, lock, true);
                                pds.overwrite(
                                    SharedState(g),
                                    from,
                                    SharedState(g2),
                                    sym(edge.to, l),
                                )
                                .expect("ids in range");
                            }
                        }
                        Effect::Unlock => {
                            let lock = self.lock_bit.expect("Unlock implies the $lock bit");
                            let g2 = set_bit(g, lock, false);
                            pds.overwrite(SharedState(g), from, SharedState(g2), sym(edge.to, l))
                                .expect("ids in range");
                        }
                    }
                }
            }
        }
        Ok(())
    }
}

fn set_bit(bits: u32, idx: usize, v: bool) -> u32 {
    if v {
        bits | (1 << idx)
    } else {
        bits & !(1 << idx)
    }
}

/// A concrete (globals, locals) valuation with variable lookup.
struct Env<'a> {
    globals: &'a [String],
    locals: &'a [String],
    g: u32,
    l: u32,
}

impl Env<'_> {
    fn lookup(&self, name: &str) -> bool {
        // Locals shadow globals.
        if let Some(i) = self.locals.iter().position(|n| n == name) {
            return (self.l >> i) & 1 == 1;
        }
        if let Some(i) = self.globals.iter().position(|n| n == name) {
            return (self.g >> i) & 1 == 1;
        }
        false
    }

    fn values(&self, e: &Expr) -> Vec<bool> {
        e.eval_nondet(&|name| self.lookup(name))
    }

    fn can_be(&self, e: &Expr, wanted: bool) -> bool {
        self.values(e).contains(&wanted)
    }

    fn write_var(&self, name: &str, v: bool) -> (u32, u32) {
        if let Some(i) = self.locals.iter().position(|n| n == name) {
            return (self.g, set_bit(self.l, i, v));
        }
        if let Some(i) = self.globals.iter().position(|n| n == name) {
            return (set_bit(self.g, i, v), self.l);
        }
        (self.g, self.l)
    }

    /// All post-valuations of a parallel assignment (nondeterminism in
    /// the right-hand sides, filtered by the `constrain` clause, which
    /// is evaluated over the *post* state).
    fn assign_outcomes(
        &self,
        targets: &[String],
        values: &[Expr],
        constrain: &Option<Expr>,
    ) -> Vec<(u32, u32)> {
        let mut tuples: Vec<Vec<bool>> = vec![Vec::new()];
        for v in values {
            let choices = self.values(v);
            let mut next = Vec::new();
            for t in &tuples {
                for &c in &choices {
                    let mut t2 = t.clone();
                    t2.push(c);
                    next.push(t2);
                }
            }
            tuples = next;
        }
        let mut out = Vec::new();
        for t in tuples {
            let (mut g2, mut l2) = (self.g, self.l);
            for (name, &v) in targets.iter().zip(&t) {
                let env2 = Env {
                    globals: self.globals,
                    locals: self.locals,
                    g: g2,
                    l: l2,
                };
                let (ng, nl) = env2.write_var(name, v);
                g2 = ng;
                l2 = nl;
            }
            if let Some(c) = constrain {
                let post = Env {
                    globals: self.globals,
                    locals: self.locals,
                    g: g2,
                    l: l2,
                };
                if !post.can_be(c, true) {
                    continue;
                }
            }
            out.push((g2, l2));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    /// All argument-value tuples for a call.
    fn arg_tuples(&self, args: &[Expr]) -> Vec<Vec<bool>> {
        let mut tuples: Vec<Vec<bool>> = vec![Vec::new()];
        for a in args {
            let choices = self.values(a);
            let mut next = Vec::new();
            for t in &tuples {
                for &c in &choices {
                    let mut t2 = t.clone();
                    t2.push(c);
                    next.push(t2);
                }
            }
            tuples = next;
        }
        tuples
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse;
    use cuba_core::{Portfolio, Verdict};

    fn run(src: &str) -> Verdict {
        let program = parse(src).unwrap();
        let t = translate(&program).unwrap();
        Portfolio::auto()
            .run(t.cpds.clone(), t.error_free_property())
            .unwrap()
            .verdict
    }

    #[test]
    fn assertion_failure_detected() {
        let v = run(r#"
            decl x;
            void a() { x := 1; }
            void b() { assert(!x); }
            void main() { thread_create(a); thread_create(b); }
        "#);
        assert!(v.is_unsafe(), "{v:?}");
    }

    #[test]
    fn assume_blocks_violation() {
        // assume(0) never passes, so the failing assert is dead code.
        let v = run(r#"
            void b() { assume(0); assert(0); }
            void main() { thread_create(b); }
        "#);
        assert!(v.is_safe(), "{v:?}");
    }

    #[test]
    fn check_then_act_race_is_found() {
        // The classic TOCTOU: another thread flips x between the
        // assume and the assert — a 3-context counterexample.
        let v = run(r#"
            decl x;
            void a() { x := 1; }
            void b() { assume(!x); assert(!x); }
            void main() { thread_create(a); thread_create(b); }
        "#);
        match v {
            Verdict::Unsafe { k, witness } => {
                assert_eq!(k, 3);
                assert!(witness.is_some());
            }
            other => panic!("expected Unsafe at 3, got {other:?}"),
        }
    }

    #[test]
    fn lock_protects_invariant() {
        // Without the atomic block the check-then-set would race.
        let v = run(r#"
            decl busy taken;
            void worker() {
              atomic {
                assume(!busy);
                busy := 1;
              }
              assert(busy);
              busy := 0;
            }
            void main() { thread_create(worker); thread_create(worker); }
        "#);
        assert!(v.is_safe(), "{v:?}");
    }

    #[test]
    fn recursion_translates_to_pushes() {
        let src = r#"
            decl x;
            void f() { if (*) { call f(); } x := 1; }
            void main() { thread_create(f); }
        "#;
        let t = translate(&parse(src).unwrap()).unwrap();
        let pushes = t
            .cpds
            .thread(0)
            .actions()
            .iter()
            .filter(|a| a.push_symbols().is_some())
            .count();
        assert!(pushes > 0, "recursive call must produce push actions");
        // Unbounded recursion within one context: FCR fails, as Fig. 2.
        assert!(!cuba_core::check_fcr(&t.cpds).holds());
    }

    #[test]
    fn return_value_flows_back() {
        let v = run(r#"
            decl g;
            bool one() { return 1; }
            void f() { decl t; t := call one(); assert(t); g := 1; }
            void main() { thread_create(f); }
        "#);
        assert!(v.is_safe(), "{v:?}");
        let v = run(r#"
            bool zero() { return 0; }
            void f() { decl t; t := call zero(); assert(t); }
            void main() { thread_create(f); }
        "#);
        assert!(v.is_unsafe(), "{v:?}");
    }

    #[test]
    fn parameters_are_passed() {
        let v = run(r#"
            void check(p) { assert(p); }
            void f() { call check(1); }
            void main() { thread_create(f); }
        "#);
        assert!(v.is_safe(), "{v:?}");
        let v = run(r#"
            void check(p) { assert(p); }
            void f() { call check(0); }
            void main() { thread_create(f); }
        "#);
        assert!(v.is_unsafe(), "{v:?}");
    }

    #[test]
    fn constrain_filters_outcomes() {
        // x,y := *,* constrain x != y — then x = y is unreachable.
        let v = run(r#"
            decl x y;
            void f() { x, y := *, * constrain x != y; assert(x != y); }
            void main() { thread_create(f); }
        "#);
        assert!(v.is_safe(), "{v:?}");
    }

    #[test]
    fn goto_nondeterminism() {
        let v = run(r#"
            decl x;
            void f() { start: goto a b; a: x := 1; goto done; b: x := 0; goto done; done: assert(x); }
            void main() { thread_create(f); }
        "#);
        assert!(v.is_unsafe(), "one goto branch violates the assertion");
    }

    #[test]
    fn while_loop_translates() {
        let v = run(r#"
            decl x;
            void setter() { x := 1; }
            void waiter() { while (!x) { skip; } assert(x); }
            void main() { thread_create(setter); thread_create(waiter); }
        "#);
        assert!(v.is_safe(), "{v:?}");
    }

    #[test]
    fn too_many_globals_rejected() {
        let decls: Vec<String> = (0..13).map(|i| format!("decl g{i};")).collect();
        let src = format!(
            "{} void f() {{ skip; }} void main() {{ thread_create(f); }}",
            decls.join(" ")
        );
        let e = translate(&parse(&src).unwrap()).unwrap_err();
        assert!(matches!(e, BoolProgError::TooLarge(_)));
    }

    #[test]
    fn simplified_translation_shrinks_but_agrees() {
        // assume(0) makes the failing assert unreachable; the
        // simplified translation drops those transitions entirely yet
        // reaches the same verdict.
        let src = r#"
            decl x;
            void a() { x := 1; }
            void b() { if (0) { assert(0); } else { assert(!x | x); } }
            void main() { thread_create(a); thread_create(b); }
        "#;
        let program = parse(src).unwrap();
        let plain = translate(&program).unwrap();
        let (simplified, report) = translate_simplified(&program).unwrap();
        assert!(report
            .lints
            .iter()
            .any(|l| l.code == "dead-branch" || l.code == "constant-assert"));
        let count = |t: &Translated| {
            (0..t.cpds.num_threads())
                .map(|i| t.cpds.thread(i).actions().len())
                .sum::<usize>()
        };
        assert!(count(&simplified) < count(&plain), "fewer transitions");
        let verdict = |t: &Translated| {
            Portfolio::auto()
                .run(t.cpds.clone(), t.error_free_property())
                .unwrap()
                .verdict
        };
        assert!(verdict(&plain).is_safe());
        assert!(verdict(&simplified).is_safe());
    }

    #[test]
    fn simplified_translation_is_identity_on_clean_programs() {
        let src = r#"
            decl x;
            void a() { x := 1; }
            void b() { assume(!x); assert(!x); }
            void main() { thread_create(a); thread_create(b); }
        "#;
        let program = parse(src).unwrap();
        let plain = translate(&program).unwrap();
        let (simplified, report) = translate_simplified(&program).unwrap();
        assert!(report.lints.is_empty());
        assert_eq!(
            cuba_core::fingerprint(&plain.cpds),
            cuba_core::fingerprint(&simplified.cpds)
        );
    }

    #[test]
    fn symbol_description_roundtrip() {
        let src = r#"
            void f() { decl a; a := 1; skip; }
            void main() { thread_create(f); }
        "#;
        let t = translate(&parse(src).unwrap()).unwrap();
        let entry = t.cpds.initial_stack(0).top().unwrap();
        let (name, point, locals) = t.describe_symbol(entry).unwrap();
        assert_eq!(name, "f");
        assert_eq!(point, 0);
        assert_eq!(locals, 0);
    }
}
