//! The invariant lints.
//!
//! Each lint is a pure function over a [`FileModel`] that yields raw findings;
//! the driver in `lib.rs` applies suppressions and attaches file paths. The
//! invariants these encode are documented in `crates/lint/README.md`.

use crate::lexer::{Tok, Token};
use crate::scope::FileModel;

/// A raw finding before suppression filtering.
#[derive(Debug)]
pub struct Finding {
    pub lint: &'static str,
    pub line: u32,
    pub message: String,
}

pub const PANIC_DISCIPLINE: &str = "panic-discipline";
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
pub const ALLOC_FREE_HOT_PATH: &str = "alloc-free-hot-path";
pub const CATCH_UNWIND_WORKERS: &str = "catch-unwind-workers";
pub const FAILPOINT_REGISTRY: &str = "failpoint-registry";
pub const DIRECTIVE: &str = "lint-directive";

/// Short aliases accepted in `allow(...)` for each lint.
pub fn aliases(lint: &str) -> &'static [&'static str] {
    match lint {
        PANIC_DISCIPLINE => &["panic"],
        LOCK_DISCIPLINE => &["lock"],
        ALLOC_FREE_HOT_PATH => &["alloc"],
        CATCH_UNWIND_WORKERS => &["catch-unwind"],
        FAILPOINT_REGISTRY => &["failpoint"],
        _ => &[],
    }
}

/// Every lint name that may appear in an `allow(...)` directive.
pub fn known_allow_names() -> Vec<&'static str> {
    let mut names = vec![
        PANIC_DISCIPLINE,
        LOCK_DISCIPLINE,
        ALLOC_FREE_HOT_PATH,
        CATCH_UNWIND_WORKERS,
        FAILPOINT_REGISTRY,
    ];
    for lint in names.clone() {
        names.extend_from_slice(aliases(lint));
    }
    names
}

fn word_at<'a>(tokens: &'a [Token<'_>], i: usize) -> Option<&'a str> {
    match tokens.get(i).map(|t| &t.tok) {
        Some(Tok::Word(w)) => Some(w),
        _ => None,
    }
}

fn punct_at(tokens: &[Token<'_>], i: usize, c: char) -> bool {
    matches!(tokens.get(i).map(|t| &t.tok), Some(Tok::Punct(x)) if *x == c)
}

/// Is the word at `i` called — `(` directly after, or after a turbofish
/// (`.collect::<Vec<_>>()`)?
fn is_called(tokens: &[Token<'_>], i: usize) -> bool {
    if punct_at(tokens, i + 1, '(') {
        return true;
    }
    if punct_at(tokens, i + 1, ':') && punct_at(tokens, i + 2, ':') && punct_at(tokens, i + 3, '<')
    {
        let mut depth = 1i32;
        let mut j = i + 4;
        while j < tokens.len() && depth > 0 {
            match tokens[j].tok {
                Tok::Punct('<') => depth += 1,
                Tok::Punct('>') => depth -= 1,
                _ => {}
            }
            j += 1;
        }
        return punct_at(tokens, j, '(');
    }
    false
}

/// panic-discipline: serving-reachable modules must not contain panicking
/// calls/macros outside test code. Genuine failure paths return
/// `EngineResult`; provably-unreachable sites carry an `allow(panic)` with the
/// invariant as its reason.
pub fn panic_discipline(model: &FileModel<'_>) -> Vec<Finding> {
    const MACROS: &[&str] = &[
        "panic",
        "unreachable",
        "todo",
        "unimplemented",
        "assert",
        "assert_eq",
        "assert_ne",
        "debug_assert",
        "debug_assert_eq",
        "debug_assert_ne",
    ];
    let tokens = &model.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if model.in_test(i) {
            continue;
        }
        let Some(w) = word_at(tokens, i) else {
            continue;
        };
        let line = tokens[i].line;
        if (w == "unwrap" || w == "expect")
            && i > 0
            && punct_at(tokens, i - 1, '.')
            && is_called(tokens, i)
        {
            out.push(Finding {
                lint: PANIC_DISCIPLINE,
                line,
                message: format!(
                    "`.{w}(…)` in a serving-reachable module; return an error or annotate the invariant"
                ),
            });
        } else if MACROS.contains(&w) && punct_at(tokens, i + 1, '!') {
            out.push(Finding {
                lint: PANIC_DISCIPLINE,
                line,
                message: format!(
                    "`{w}!` in a serving-reachable module; return an error or annotate the invariant"
                ),
            });
        }
    }
    out
}

/// lock-discipline, part 1: no bare `.read().unwrap()` / `.write().unwrap()` /
/// `.lock().unwrap()` (or `.expect(…)`) anywhere — lock access must go through
/// the poison-tolerant `*_recover` helpers so a panicking writer cannot take
/// the serving path down with it.
pub fn lock_discipline(model: &FileModel<'_>) -> Vec<Finding> {
    let tokens = &model.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        let Some(m) = word_at(tokens, i) else {
            continue;
        };
        if !matches!(m, "read" | "write" | "lock") {
            continue;
        }
        // `.m().unwrap(` / `.m().expect(`
        let bare = i > 0
            && punct_at(tokens, i - 1, '.')
            && punct_at(tokens, i + 1, '(')
            && punct_at(tokens, i + 2, ')')
            && punct_at(tokens, i + 3, '.')
            && matches!(word_at(tokens, i + 4), Some("unwrap") | Some("expect"))
            && punct_at(tokens, i + 5, '(');
        if bare {
            let u = word_at(tokens, i + 4).unwrap_or("unwrap");
            out.push(Finding {
                lint: LOCK_DISCIPLINE,
                line: tokens[i].line,
                message: format!(
                    "bare `.{m}().{u}(…)`; use the poison-tolerant helpers (`read_recover`/`write_recover`/`lock_recover`)"
                ),
            });
        }
    }
    out
}

/// lock-discipline, part 2: named-lock acquisition order. The engine's lock
/// classes are ranked; acquiring a lower-ranked lock while textually after a
/// higher-ranked acquisition *within one function* is an inversion hazard
/// (the classic ingest-lock/epoch-cell deadlock shape).
///
/// Rank 0: `ingest` (the ingestion serialization mutex) — outermost.
/// Rank 1: `current` (the `EpochCell` swap mutex).
/// Rank 2: memo maps (`views`, `groups`, `sorted`, `cats`, `order`,
///         `group_feats`) and the tier `queue` — innermost.
pub fn lock_order(model: &FileModel<'_>) -> Vec<Finding> {
    fn rank(name: &str) -> Option<u8> {
        match name {
            "ingest" => Some(0),
            "current" => Some(1),
            "views" | "groups" | "sorted" | "cats" | "order" | "group_feats" | "queue" => Some(2),
            _ => None,
        }
    }
    let tokens = &model.tokens;
    let mut out = Vec::new();
    for f in &model.functions {
        let Some((open, close)) = f.body else {
            continue;
        };
        // (rank, lock name, line) in textual acquisition order.
        let mut acquired: Vec<(u8, String, u32)> = Vec::new();
        let mut i = open;
        while i < close {
            if let Some(w) = word_at(tokens, i) {
                if matches!(w, "lock_recover" | "read_recover" | "write_recover")
                    && punct_at(tokens, i + 1, '(')
                {
                    // Last path segment of the argument names the lock:
                    // `lock_recover(&self.shared.ingest)` → `ingest`.
                    let mut j = i + 2;
                    let mut depth = 1i32;
                    let mut last_word: Option<&str> = None;
                    while j < close && depth > 0 {
                        match &tokens[j].tok {
                            Tok::Punct('(') => depth += 1,
                            Tok::Punct(')') => depth -= 1,
                            Tok::Word(a) if depth == 1 => last_word = Some(a),
                            _ => {}
                        }
                        j += 1;
                    }
                    if let Some(r) = last_word.and_then(rank) {
                        let name = last_word.unwrap_or_default().to_string();
                        let line = tokens[i].line;
                        for (prev_rank, prev_name, prev_line) in &acquired {
                            if r < *prev_rank {
                                out.push(Finding {
                                    lint: LOCK_DISCIPLINE,
                                    line,
                                    message: format!(
                                        "lock-order inversion in `{}`: `{name}` (rank {r}) acquired after `{prev_name}` (rank {prev_rank}, line {prev_line}); declared order is ingest → current → memo maps",
                                        f.name
                                    ),
                                });
                            }
                        }
                        acquired.push((r, name, line));
                    }
                    i = j;
                    continue;
                }
            }
            i += 1;
        }
    }
    out
}

/// alloc-free-hot-path: inside a function marked `// lint: hot-path`, deny the
/// known allocating calls. Complements the counting-allocator runtime test:
/// the lint catches the regression at review time, the allocator at test time.
pub fn alloc_free_hot_path(model: &FileModel<'_>) -> Vec<Finding> {
    const ALLOC_METHODS: &[&str] = &["to_string", "to_owned", "to_vec", "collect", "clone"];
    const ALLOC_MACROS: &[&str] = &["format", "vec"];
    const ALLOC_TYPES: &[&str] = &["Vec", "String", "Box", "HashMap", "BTreeMap"];
    let tokens = &model.tokens;
    let mut out = Vec::new();
    for f in model.functions.iter().filter(|f| f.hot) {
        let Some((open, close)) = f.body else {
            continue;
        };
        for i in open..close {
            let Some(w) = word_at(tokens, i) else {
                continue;
            };
            let line = tokens[i].line;
            if ALLOC_METHODS.contains(&w)
                && i > 0
                && punct_at(tokens, i - 1, '.')
                && is_called(tokens, i)
            {
                out.push(Finding {
                    lint: ALLOC_FREE_HOT_PATH,
                    line,
                    message: format!("`.{w}(…)` allocates inside hot-path fn `{}`", f.name),
                });
            } else if ALLOC_MACROS.contains(&w) && punct_at(tokens, i + 1, '!') {
                out.push(Finding {
                    lint: ALLOC_FREE_HOT_PATH,
                    line,
                    message: format!("`{w}!` allocates inside hot-path fn `{}`", f.name),
                });
            } else if ALLOC_TYPES.contains(&w)
                && punct_at(tokens, i + 1, ':')
                && punct_at(tokens, i + 2, ':')
                && matches!(
                    word_at(tokens, i + 3),
                    Some("new") | Some("with_capacity") | Some("from")
                )
                && punct_at(tokens, i + 4, '(')
            {
                let ctor = word_at(tokens, i + 3).unwrap_or("new");
                out.push(Finding {
                    lint: ALLOC_FREE_HOT_PATH,
                    line,
                    message: format!("`{w}::{ctor}(…)` allocates inside hot-path fn `{}`", f.name),
                });
            }
        }
    }
    out
}

/// catch-unwind-workers: every `std::thread::scope` in `crates/feataug/src`
/// non-test code must live in a function that also contains a `catch_unwind`
/// (i.e. `fan_out` or an equivalent wrapper) so a panicking worker closure is
/// contained instead of tearing down the process.
pub fn catch_unwind_workers(model: &FileModel<'_>) -> Vec<Finding> {
    let tokens = &model.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if model.in_test(i) {
            continue;
        }
        let is_scope = word_at(tokens, i) == Some("thread")
            && punct_at(tokens, i + 1, ':')
            && punct_at(tokens, i + 2, ':')
            && word_at(tokens, i + 3) == Some("scope")
            && punct_at(tokens, i + 4, '(');
        if !is_scope {
            continue;
        }
        let line = tokens[i].line;
        let guarded = match model.enclosing_fn(i) {
            Some(f) => {
                let (open, close) = f.body.unwrap_or((0, 0));
                (open..close).any(|j| word_at(tokens, j) == Some("catch_unwind"))
            }
            None => false,
        };
        if !guarded {
            out.push(Finding {
                lint: CATCH_UNWIND_WORKERS,
                line,
                message: "`thread::scope` without a `catch_unwind` wrapper in the same fn; route worker closures through `fan_out`".to_string(),
            });
        }
    }
    out
}

/// Extract `fail_point!("name")` sites (name + line) from a file. The
/// `macro_rules!` definition itself does not match: its `$name` metavariable
/// is not a string literal.
pub fn failpoint_sites(model: &FileModel<'_>) -> Vec<(String, u32)> {
    let tokens = &model.tokens;
    let mut out = Vec::new();
    for i in 0..tokens.len() {
        if word_at(tokens, i) == Some("fail_point") && punct_at(tokens, i + 1, '!') {
            // `fail_point!("name")` or `crate::fail_point!("name", default)`.
            if punct_at(tokens, i + 2, '(') {
                if let Some(Tok::Str(name)) = tokens.get(i + 3).map(|t| &t.tok) {
                    out.push((name.clone(), tokens[i].line));
                }
            }
        }
    }
    out
}

/// All string literal values in a file, for the chaos-suite arm scan.
pub fn string_literals(model: &FileModel<'_>) -> Vec<String> {
    model
        .tokens
        .iter()
        .filter_map(|t| match &t.tok {
            Tok::Str(s) => Some(s.clone()),
            _ => None,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model(src: &str) -> FileModel<'_> {
        FileModel::parse(src)
    }

    #[test]
    fn unwrap_or_else_is_not_unwrap() {
        let src = "fn f(x: Option<u8>) { x.unwrap_or_else(|| 0); x.unwrap_or(0); }";
        assert!(panic_discipline(&model(src)).is_empty());
    }

    #[test]
    fn expect_err_is_not_expect() {
        let src = "fn f(x: Result<u8, u8>) { x.expect_err(\"nope\"); }";
        assert!(panic_discipline(&model(src)).is_empty());
    }

    #[test]
    fn lock_order_flags_inversion_only() {
        let ok = "fn f(&self) { let _g = lock_recover(&self.ingest); let v = write_recover(&self.views); }";
        assert!(lock_order(&model(ok)).is_empty());
        let bad = "fn f(&self) { let v = write_recover(&self.views); let _g = lock_recover(&self.ingest); }";
        let findings = lock_order(&model(bad));
        assert_eq!(findings.len(), 1);
        assert!(findings[0].message.contains("inversion"));
    }

    #[test]
    fn failpoint_macro_rules_definition_is_not_a_site() {
        let src = "macro_rules! fail_point { ($name:expr) => {}; }\nfn f() { fail_point!(\"exec.kernel\"); }";
        let sites = failpoint_sites(&model(src));
        assert_eq!(sites, vec![("exec.kernel".to_string(), 2)]);
    }
}
