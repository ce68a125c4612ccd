//! The SQL front door (§4.3):
//!
//! * `SELECT * FROM dana.<udf>('<table>');` — train (the paper's form);
//!   `EXECUTE dana.<udf>('<table>');` is an accepted synonym;
//! * `PREDICT dana.<udf>('<table>') INTO '<dest>';` — score `table` with
//!   the UDF's latest trained model and materialize the predictions as a
//!   new catalog table `dest`;
//! * `EVALUATE dana.<udf>('<table>'[, '<metric>']);` — score and fold an
//!   in-database quality metric, exporting nothing.
//!
//! Every table-scanning form takes up to three optional trailing clauses,
//! **in any order**, each at most once:
//!
//! * **`WHERE <col> <op> <number> [AND …]`** — pushdown predicate: rows
//!   are filtered page-at-a-time *before* tuple extraction, and zone maps
//!   skip pages no row of which can match;
//! * **`COLUMNS (c1, c2, …)`** — pushdown projection: only the named
//!   columns reach the engine;
//! * **`WITH (...)`** — comma-separated options:
//!   * `shards = k` — the query runs intra-query data-parallel on a gang
//!     of `k` accelerator instances (page-range shards, epoch-boundary
//!     model merging; parallel PREDICT stays bit-identical to serial for
//!     every `k`);
//!   * `backend = cpu|fpga|auto` — pins the execution substrate, or
//!     leaves the choice to the cost-based backend advisor (`auto`, the
//!     default).
//!
//! Prefixing any statement with **`EXPLAIN`** parses the inner statement
//! and asks the advisor for its per-backend [`crate::StrategyComparison`]
//! without executing anything.
//!
//! "The RDBMS parses, optimizes, and executes the query while treating the
//! UDF as a black box" (§3) — here the interesting query shapes are exactly
//! the UDF invocations, so the parser accepts those forms (case-insensitive
//! keywords, optional schema prefix, single- or double-quoted names).

use dana_infer::MetricKind;
use dana_scan::{CmpOp, Predicate, ScanSpec};

use crate::advisor::BackendChoice;
use crate::error::{DanaError, DanaResult};

/// The parsed trailing `WITH (...)` option clause.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
struct WithOptions {
    shards: Option<u16>,
    backend: BackendChoice,
    trace: bool,
    timeout_ms: Option<u64>,
    retries: Option<u32>,
}

/// A parsed accelerated-UDF training invocation.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct QueryCall {
    pub udf: String,
    pub table: String,
    /// `WHERE`/`COLUMNS` pushdown spec compiled at parse time (`None` = a
    /// plain full-table scan).
    pub scan: Option<ScanSpec>,
    /// `WITH (shards = k)`: gang size for intra-query parallelism
    /// (`None` = serial).
    pub shards: Option<u16>,
    /// `WITH (backend = ...)`: the requested execution substrate.
    pub backend: BackendChoice,
    /// `WITH (trace = on)`: attach a query-lifecycle trace to the reply.
    pub trace: bool,
    /// `WITH (timeout_ms = n)`: query deadline; past it, cooperative
    /// cancellation returns a typed deadline error (`None` = the
    /// server's default, if any).
    pub timeout_ms: Option<u64>,
    /// `WITH (retries = n)`: transient-fault retry budget override
    /// (`None` = the server's default policy).
    pub retries: Option<u32>,
}

/// A parsed `PREDICT … INTO …` statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PredictCall {
    pub udf: String,
    /// The table whose rows are scored.
    pub table: String,
    /// The materialized prediction table to create.
    pub into: String,
    /// `WHERE`/`COLUMNS` pushdown spec compiled at parse time (`None` = a
    /// plain full-table scan).
    pub scan: Option<ScanSpec>,
    /// `WITH (shards = k)`: gang size for intra-query parallelism.
    pub shards: Option<u16>,
    /// `WITH (backend = ...)`: the requested execution substrate.
    pub backend: BackendChoice,
    /// `WITH (trace = on)`: attach a query-lifecycle trace to the reply.
    pub trace: bool,
    /// `WITH (timeout_ms = n)`: query deadline; past it, cooperative
    /// cancellation returns a typed deadline error (`None` = the
    /// server's default, if any).
    pub timeout_ms: Option<u64>,
    /// `WITH (retries = n)`: transient-fault retry budget override
    /// (`None` = the server's default policy).
    pub retries: Option<u32>,
}

/// A parsed point-form `PREDICT dana.<udf>(VALUES (...), ...)` statement:
/// the online fast path. Rows are bound directly from the statement —
/// there is no source table, no heap scan, and no materialized
/// destination; predictions come back inline in the reply.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PointCall {
    pub udf: String,
    /// The literal parameter vectors to score, one per VALUES group.
    pub rows: Vec<Vec<f32>>,
    /// `WITH (backend = ...)`: the requested execution substrate.
    pub backend: BackendChoice,
    /// `WITH (trace = on)`: attach a query-lifecycle trace to the reply.
    pub trace: bool,
    /// `WITH (timeout_ms = n)`: query deadline; past it, cooperative
    /// cancellation returns a typed deadline error (`None` = the
    /// server's default, if any).
    pub timeout_ms: Option<u64>,
    /// `WITH (retries = n)`: transient-fault retry budget override
    /// (`None` = the server's default policy).
    pub retries: Option<u32>,
}

/// A parsed `EVALUATE` statement.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EvaluateCall {
    pub udf: String,
    pub table: String,
    /// Explicit metric, or `None` for the analytic's default.
    pub metric: Option<MetricKind>,
    /// `WHERE`/`COLUMNS` pushdown spec compiled at parse time (`None` = a
    /// plain full-table scan).
    pub scan: Option<ScanSpec>,
    /// `WITH (shards = k)`: gang size for intra-query parallelism.
    pub shards: Option<u16>,
    /// `WITH (backend = ...)`: the requested execution substrate.
    pub backend: BackendChoice,
    /// `WITH (trace = on)`: attach a query-lifecycle trace to the reply.
    pub trace: bool,
    /// `WITH (timeout_ms = n)`: query deadline; past it, cooperative
    /// cancellation returns a typed deadline error (`None` = the
    /// server's default, if any).
    pub timeout_ms: Option<u64>,
    /// `WITH (retries = n)`: transient-fault retry budget override
    /// (`None` = the server's default policy).
    pub retries: Option<u32>,
}

/// Any statement the front door accepts.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT * FROM dana.<udf>('<table>');` — train.
    Train(QueryCall),
    /// `PREDICT dana.<udf>('<table>') INTO '<dest>';`.
    Predict(PredictCall),
    /// `PREDICT dana.<udf>(VALUES (x, ...), ...);` — the online point
    /// fast path: score literal rows against the cached scoring program
    /// without a heap scan or a materialized destination.
    PredictPoint(PointCall),
    /// `EVALUATE dana.<udf>('<table>'[, '<metric>']);`.
    Evaluate(EvaluateCall),
    /// `EXPLAIN <stmt>;` — price the inner statement on every backend
    /// without running it.
    Explain(Box<Statement>),
    /// `EXPLAIN ANALYZE <stmt>;` — execute the inner statement with the
    /// lifecycle trace enabled and render the span tree alongside the
    /// advisor's prediction.
    ExplainAnalyze(Box<Statement>),
    /// `SHOW STATS [('<subsystem>')];` — snapshot the metrics registry.
    ShowStats(Option<String>),
}

impl Statement {
    /// Whether this statement opted into lifecycle tracing with
    /// `WITH (trace = on)`. EXPLAIN ANALYZE traces regardless; EXPLAIN
    /// and SHOW STATS execute nothing and have no trace to opt into.
    pub fn wants_trace(&self) -> bool {
        match self {
            Statement::Train(c) => c.trace,
            Statement::Predict(p) => p.trace,
            Statement::PredictPoint(p) => p.trace,
            Statement::Evaluate(e) => e.trace,
            Statement::Explain(_) | Statement::ExplainAnalyze(_) | Statement::ShowStats(_) => false,
        }
    }

    /// The statement's `WITH (timeout_ms = n)` deadline, if any.
    /// EXPLAIN ANALYZE executes its inner statement, so it inherits the
    /// inner clause; plain EXPLAIN and SHOW STATS execute nothing.
    pub fn timeout_ms(&self) -> Option<u64> {
        match self {
            Statement::Train(c) => c.timeout_ms,
            Statement::Predict(p) => p.timeout_ms,
            Statement::PredictPoint(p) => p.timeout_ms,
            Statement::Evaluate(e) => e.timeout_ms,
            Statement::ExplainAnalyze(inner) => inner.timeout_ms(),
            Statement::Explain(_) | Statement::ShowStats(_) => None,
        }
    }

    /// The statement's `WITH (retries = n)` retry-budget override.
    pub fn retries(&self) -> Option<u32> {
        match self {
            Statement::Train(c) => c.retries,
            Statement::Predict(p) => p.retries,
            Statement::PredictPoint(p) => p.retries,
            Statement::Evaluate(e) => e.retries,
            Statement::ExplainAnalyze(inner) => inner.retries(),
            Statement::Explain(_) | Statement::ShowStats(_) => None,
        }
    }
}

/// Parses any front-door statement.
pub fn parse_statement(sql: &str) -> DanaResult<Statement> {
    let s = sql.trim().trim_end_matches(';').trim();
    let lower_head = s.to_ascii_lowercase();
    if let Some(rest) = lower_head.strip_prefix("explain") {
        if !rest.starts_with([' ', '\t']) {
            return Err(err("expected EXPLAIN <statement>"));
        }
        let tail = s["explain".len()..].trim_start();
        let tail_lower = tail.to_ascii_lowercase();
        if let Some(after) = tail_lower.strip_prefix("analyze") {
            if after.starts_with([' ', '\t']) {
                let inner = parse_statement(tail["analyze".len()..].trim_start())?;
                return match inner {
                    Statement::Explain(_) | Statement::ExplainAnalyze(_) => {
                        Err(err("EXPLAIN ANALYZE cannot wrap EXPLAIN"))
                    }
                    Statement::ShowStats(_) => Err(err("EXPLAIN ANALYZE cannot wrap SHOW STATS")),
                    inner => Ok(Statement::ExplainAnalyze(Box::new(inner))),
                };
            }
        }
        let inner = parse_statement(tail)?;
        return match inner {
            Statement::Explain(_) | Statement::ExplainAnalyze(_) => {
                Err(err("EXPLAIN cannot be nested"))
            }
            Statement::ShowStats(_) => Err(err("EXPLAIN cannot wrap SHOW STATS")),
            inner => Ok(Statement::Explain(Box::new(inner))),
        };
    }
    if lower_head.starts_with("show") {
        return parse_show_stats(s);
    }
    let (s, scan, opts) = split_tail_clauses(s)?;
    let lower = s.to_ascii_lowercase();
    if lower.starts_with("predict") {
        return parse_predict(s, &lower, scan, opts);
    }
    if lower.starts_with("evaluate") {
        return parse_evaluate(s, &lower, scan, opts).map(Statement::Evaluate);
    }
    if let Some(rest) = lower.strip_prefix("execute") {
        // `EXECUTE dana.<udf>('<table>')` — the paper's verb for running
        // a deployed accelerator, synonymous with the SELECT form.
        if !rest.starts_with([' ', '\t']) {
            return Err(err("expected EXECUTE <udf>(...)"));
        }
        let tail = s["execute".len()..].trim_start();
        let (udf, args) = parse_udf_call(tail)?;
        let table = single_arg(&args)?;
        return Ok(Statement::Train(QueryCall {
            udf,
            table,
            scan,
            shards: opts.shards,
            backend: opts.backend,
            trace: opts.trace,
            timeout_ms: opts.timeout_ms,
            retries: opts.retries,
        }));
    }
    parse_select(s, scan, opts).map(Statement::Train)
}

/// Parses `SELECT * FROM dana.linearR('training_data_table');` (with the
/// optional trailing `WHERE`/`COLUMNS`/`WITH` clauses).
pub fn parse_query(sql: &str) -> DanaResult<QueryCall> {
    let s = sql.trim().trim_end_matches(';').trim();
    let (s, scan, opts) = split_tail_clauses(s)?;
    parse_select(s, scan, opts)
}

fn parse_select(s: &str, scan: Option<ScanSpec>, opts: WithOptions) -> DanaResult<QueryCall> {
    let lower = s.to_ascii_lowercase();
    let rest = lower
        .strip_prefix("select")
        .ok_or_else(|| err("expected SELECT"))?
        .trim_start();
    let rest = rest
        .strip_prefix('*')
        .ok_or_else(|| err("expected SELECT *"))?
        .trim_start();
    let rest = rest
        .strip_prefix("from")
        .ok_or_else(|| err("expected FROM"))?
        .trim_start();
    // Work on the original string from here to preserve identifier case.
    let tail = &s[s.len() - rest.len()..];
    let (udf, args) = parse_udf_call(tail)?;
    let table = single_arg(&args)?;
    Ok(QueryCall {
        udf,
        table,
        scan,
        shards: opts.shards,
        backend: opts.backend,
        trace: opts.trace,
        timeout_ms: opts.timeout_ms,
        retries: opts.retries,
    })
}

/// Parses `SHOW STATS [('<subsystem>')]` — the metrics-registry
/// snapshot query. The subsystem filter is validated against
/// [`dana_obs::SUBSYSTEMS`] at parse time, so an unknown name is a typed
/// query error before anything executes.
fn parse_show_stats(s: &str) -> DanaResult<Statement> {
    let lower = s.to_ascii_lowercase();
    let rest = lower.strip_prefix("show").unwrap_or(&lower);
    if !rest.starts_with([' ', '\t']) {
        return Err(err("expected SHOW STATS"));
    }
    let tail = s["show".len()..].trim_start();
    let tail_lower = tail.to_ascii_lowercase();
    if !tail_lower.starts_with("stats") {
        return Err(err("expected SHOW STATS"));
    }
    let after = tail["stats".len()..].trim();
    if !(after.is_empty() || after.starts_with('(')) {
        return Err(err("expected SHOW STATS [('<subsystem>')]"));
    }
    if after.is_empty() {
        return Ok(Statement::ShowStats(None));
    }
    let inner = after
        .strip_prefix('(')
        .and_then(|t| t.strip_suffix(')'))
        .ok_or_else(|| err("expected SHOW STATS ('<subsystem>')"))?;
    let name = parse_table_arg(inner.trim())?.to_ascii_lowercase();
    if name.is_empty() {
        return Err(err("empty stats subsystem name"));
    }
    if !dana_obs::known_subsystem(&name) {
        return Err(err(&format!(
            "unknown stats subsystem '{name}' (expected admission, pool, buffer, sessions, engine, faults, serving, or scan)"
        )));
    }
    Ok(Statement::ShowStats(Some(name)))
}

/// Byte offset of the first top-level (outside quotes) trailing-clause
/// keyword — `where`, `columns`, or `with` — in `s`, or `None`. A keyword
/// counts only at a word boundary (after whitespace or `)`) and with its
/// clause shape behind it: `WHERE` needs a following space, `COLUMNS` and
/// `WITH` must lead a parenthesized group. Anything else — a table named
/// "with…", the word inside a quoted string (quotes are NOT boundaries, so
/// a quoted name like 'with (x = 1)' passes through intact) — is left for
/// the statement parsers to judge.
fn find_clause_start(s: &str) -> Option<usize> {
    let lower = s.to_ascii_lowercase();
    let bytes = lower.as_bytes();
    let mut quote: Option<u8> = None;
    for i in 0..bytes.len() {
        let c = bytes[i];
        match quote {
            Some(q) => {
                if c == q {
                    quote = None;
                }
                continue;
            }
            None if c == b'\'' || c == b'"' => {
                quote = Some(c);
                continue;
            }
            None => {}
        }
        if i == 0 || !matches!(bytes[i - 1], b' ' | b'\t' | b')') {
            continue;
        }
        for kw in ["where", "columns", "with"] {
            if !lower[i..].starts_with(kw) {
                continue;
            }
            let tail = &lower[i + kw.len()..];
            let ok = match kw {
                "where" => matches!(tail.as_bytes().first(), Some(b' ' | b'\t')),
                _ => {
                    matches!(tail.as_bytes().first(), None | Some(b' ' | b'\t' | b'('))
                        && tail.trim_start().starts_with('(')
                }
            };
            if ok {
                return Some(i);
            }
        }
    }
    None
}

/// Splits the optional trailing clauses — `WHERE <preds>`, `COLUMNS (…)`,
/// `WITH (opts)` — off a statement. The clauses compose **in any order**,
/// each at most once; a duplicate is a typed error.
fn split_tail_clauses(s: &str) -> DanaResult<(&str, Option<ScanSpec>, WithOptions)> {
    let Some(start) = find_clause_start(s) else {
        return Ok((s, None, WithOptions::default()));
    };
    let head = s[..start].trim_end();
    let mut predicates: Option<Vec<Predicate>> = None;
    let mut projection: Option<Vec<String>> = None;
    let mut opts: Option<WithOptions> = None;
    let mut rest = s[start..].trim_start();
    while !rest.is_empty() {
        let lower = rest.to_ascii_lowercase();
        if lower.starts_with("where") {
            if predicates.is_some() {
                return Err(err("duplicate WHERE clause"));
            }
            let body = &rest["where".len()..];
            // The predicate text runs to the next clause keyword (or the
            // statement's end).
            let end = find_clause_start(body).unwrap_or(body.len());
            predicates = Some(parse_predicates(body[..end].trim())?);
            rest = body[end..].trim_start();
        } else if lower.starts_with("columns") {
            if projection.is_some() {
                return Err(err("duplicate COLUMNS clause"));
            }
            let body = rest["columns".len()..].trim_start();
            let inner = body
                .strip_prefix('(')
                .ok_or_else(|| err("COLUMNS list must be parenthesized: COLUMNS (c1, c2, ...)"))?;
            let close = inner
                .find(')')
                .ok_or_else(|| err("COLUMNS list must be parenthesized: COLUMNS (c1, c2, ...)"))?;
            projection = Some(parse_projection(&inner[..close])?);
            rest = inner[close + 1..].trim_start();
        } else if lower.starts_with("with") {
            if opts.is_some() {
                return Err(err("duplicate WITH clause"));
            }
            let body = rest["with".len()..].trim_start();
            let inner = body.strip_prefix('(').ok_or_else(|| {
                err("WITH options must be parenthesized: WITH (opt = value, ...)")
            })?;
            let close = inner.find(')').ok_or_else(|| {
                err("WITH options must be parenthesized: WITH (opt = value, ...)")
            })?;
            opts = Some(parse_with_options(&inner[..close])?);
            rest = inner[close + 1..].trim_start();
        } else {
            return Err(err(&format!("unexpected input after statement: '{rest}'")));
        }
    }
    let scan = if predicates.is_none() && projection.is_none() {
        None
    } else {
        Some(ScanSpec {
            predicates: predicates.unwrap_or_default(),
            projection,
        })
    };
    Ok((head, scan, opts.unwrap_or_default()))
}

/// Parses a `WHERE` body: `<column> <op> <number> [AND …]`.
fn parse_predicates(text: &str) -> DanaResult<Vec<Predicate>> {
    if text.is_empty() {
        return Err(err(
            "WHERE needs at least one predicate: <column> <op> <number>",
        ));
    }
    split_conjuncts(text)
        .iter()
        .map(|c| parse_one_predicate(c.trim()))
        .collect()
}

/// Splits a predicate body on the standalone keyword `AND`
/// (case-insensitive).
fn split_conjuncts(text: &str) -> Vec<&str> {
    let lower = text.to_ascii_lowercase();
    let bytes = lower.as_bytes();
    let mut parts = Vec::new();
    let mut start = 0;
    let mut i = 0;
    while i + 3 <= bytes.len() {
        let before_ok = i == 0 || bytes[i - 1].is_ascii_whitespace();
        let after_ok = i + 3 == bytes.len() || bytes[i + 3].is_ascii_whitespace();
        if &lower[i..i + 3] == "and" && before_ok && after_ok {
            parts.push(&text[start..i]);
            start = i + 3;
            i += 3;
        } else {
            i += 1;
        }
    }
    parts.push(&text[start..]);
    parts
}

/// Parses one `<column> <op> <number>` conjunct.
fn parse_one_predicate(text: &str) -> DanaResult<Predicate> {
    // Two-character operators first so `<=` never parses as `<` + `=1`.
    for op_str in ["<=", ">=", "!=", "<>", "<", ">", "="] {
        let Some(pos) = text.find(op_str) else {
            continue;
        };
        let column = text[..pos].trim();
        let value = text[pos + op_str.len()..].trim();
        if column.is_empty() || !column.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return Err(err(&format!("bad WHERE column name '{column}'")));
        }
        let v: f32 = value
            .parse()
            .map_err(|_| err(&format!("bad WHERE constant '{value}' (expected a number)")))?;
        if !v.is_finite() {
            return Err(err(&format!("non-finite WHERE constant '{value}'")));
        }
        let op = CmpOp::parse(op_str).expect("operator table entries all parse");
        return Ok(Predicate {
            column: column.to_string(),
            op,
            value: v,
        });
    }
    Err(err(&format!(
        "bad WHERE predicate '{text}' (expected <column> <op> <number>)"
    )))
}

/// Parses a `COLUMNS (…)` list into projection column names.
fn parse_projection(inner: &str) -> DanaResult<Vec<String>> {
    if inner.trim().is_empty() {
        return Err(err("COLUMNS list cannot be empty"));
    }
    let mut cols = Vec::new();
    for piece in inner.split(',') {
        let name = parse_table_arg(piece.trim())?;
        if name.is_empty() {
            return Err(err("empty column name in COLUMNS list"));
        }
        cols.push(name.to_string());
    }
    Ok(cols)
}

/// Parses the interior of a `WITH (opt = v[, opt = v])` clause (keywords
/// case-insensitive, whitespace free-form). A group that is *not* a
/// well-formed option list is a typed error, not silently ignored.
fn parse_with_options(inner: &str) -> DanaResult<WithOptions> {
    let mut opts = WithOptions::default();
    let mut seen_shards = false;
    let mut seen_backend = false;
    let mut seen_trace = false;
    let mut seen_timeout = false;
    let mut seen_retries = false;
    for item in inner.split(',') {
        let (key, value) = item
            .split_once('=')
            .ok_or_else(|| err("WITH option must be <name> = <value>"))?;
        let key = key.trim();
        let value = value.trim();
        if key.eq_ignore_ascii_case("shards") {
            if seen_shards {
                return Err(err("duplicate WITH option 'shards'"));
            }
            seen_shards = true;
            let n: u16 = value
                .parse()
                .map_err(|_| err(&format!("bad shard count '{value}'")))?;
            if n == 0 {
                return Err(err("shards must be at least 1"));
            }
            opts.shards = Some(n);
        } else if key.eq_ignore_ascii_case("backend") {
            if seen_backend {
                return Err(err("duplicate WITH option 'backend'"));
            }
            seen_backend = true;
            opts.backend = BackendChoice::parse(value)?;
        } else if key.eq_ignore_ascii_case("trace") {
            if seen_trace {
                return Err(err("duplicate WITH option 'trace'"));
            }
            seen_trace = true;
            opts.trace = if value.eq_ignore_ascii_case("on") {
                true
            } else if value.eq_ignore_ascii_case("off") {
                false
            } else {
                return Err(err(&format!(
                    "bad trace value '{value}' (expected on or off)"
                )));
            };
        } else if key.eq_ignore_ascii_case("timeout_ms") {
            if seen_timeout {
                return Err(err("duplicate WITH option 'timeout_ms'"));
            }
            seen_timeout = true;
            let ms: u64 = value
                .parse()
                .map_err(|_| err(&format!("bad timeout_ms value '{value}'")))?;
            if ms == 0 {
                return Err(err("timeout_ms must be at least 1"));
            }
            opts.timeout_ms = Some(ms);
        } else if key.eq_ignore_ascii_case("retries") {
            if seen_retries {
                return Err(err("duplicate WITH option 'retries'"));
            }
            seen_retries = true;
            let n: u32 = value
                .parse()
                .map_err(|_| err(&format!("bad retries value '{value}'")))?;
            opts.retries = Some(n);
        } else {
            return Err(err(&format!(
                "unknown WITH option '{key}' (expected shards, backend, trace, timeout_ms, or retries)"
            )));
        }
    }
    Ok(opts)
}

/// Parses the tail of `PREDICT dana.<udf>('<table>') INTO '<dest>'`, or
/// the point form `PREDICT dana.<udf>(VALUES (x, ...), ...)`.
fn parse_predict(
    s: &str,
    lower: &str,
    scan: Option<ScanSpec>,
    opts: WithOptions,
) -> DanaResult<Statement> {
    let rest = lower["predict".len()..].to_string();
    if !rest.starts_with([' ', '\t']) {
        return Err(err("expected PREDICT <udf>(...)"));
    }
    let tail = s["predict".len()..].trim_start();
    // A call whose argument text leads with the VALUES keyword is the
    // online point form — dispatch before the INTO requirement kicks in.
    // The keyword must be followed by whitespace or a row-opening '(' so
    // a table merely *named* values/values_v2 stays the table form.
    if let Some(open) = tail.find('(') {
        let arg_head = tail[open + 1..].trim_start().to_ascii_lowercase();
        if arg_head.starts_with("values")
            && matches!(
                arg_head["values".len()..].chars().next(),
                Some(' ' | '\t' | '(')
            )
        {
            if scan.is_some() {
                return Err(err(
                    "point-form PREDICT (VALUES ...) has no table scan; drop the WHERE/COLUMNS clause",
                ));
            }
            return parse_predict_point(tail, opts).map(Statement::PredictPoint);
        }
    }
    // Split at the INTO keyword (outside the call's parentheses: the call
    // ends at its closing ')', so a simple case-insensitive search after
    // the close is exact).
    let close = tail.rfind(')').ok_or_else(|| err("unclosed ')'"))?;
    let after = &tail[close + 1..];
    let after_lower = after.to_ascii_lowercase();
    let into_at = after_lower
        .find("into")
        .ok_or_else(|| err("PREDICT requires INTO '<table>'"))?;
    if !after[..into_at].trim().is_empty() {
        return Err(err("unexpected input between UDF call and INTO"));
    }
    let (udf, args) = parse_udf_call(&tail[..close + 1])?;
    let table = single_arg(&args)?;
    let dest_raw = after[into_at + "into".len()..].trim();
    if dest_raw.is_empty() {
        return Err(err("INTO needs a destination table name"));
    }
    let into = parse_table_arg(dest_raw)?.to_string();
    if into.is_empty() {
        return Err(err("empty destination table name"));
    }
    Ok(Statement::Predict(PredictCall {
        udf,
        table,
        into,
        scan,
        shards: opts.shards,
        backend: opts.backend,
        trace: opts.trace,
        timeout_ms: opts.timeout_ms,
        retries: opts.retries,
    }))
}

/// Parses the point form's call tail: `dana.<udf>(VALUES (x, ...), ...)`.
/// Every value is a literal f32; each parenthesized group is one row.
/// There is no INTO (nothing is materialized) and `shards` is rejected
/// (there is no scan to shard).
fn parse_predict_point(tail: &str, opts: WithOptions) -> DanaResult<PointCall> {
    if opts.shards.is_some() {
        return Err(err(
            "point-form PREDICT (VALUES ...) has no scan to shard; drop the 'shards' option",
        ));
    }
    let open = tail
        .find('(')
        .ok_or_else(|| err("expected UDF call '(...)'"))?;
    let close = tail.rfind(')').ok_or_else(|| err("unclosed ')'"))?;
    if close < open {
        return Err(err("malformed parentheses"));
    }
    let after = tail[close + 1..].trim();
    if !after.is_empty() {
        if after.to_ascii_lowercase().starts_with("into") {
            return Err(err(
                "point-form PREDICT (VALUES ...) returns predictions inline and takes no INTO",
            ));
        }
        return Err(err("unexpected input after UDF call"));
    }
    let mut udf = tail[..open].trim();
    if let Some(dot) = udf.rfind('.') {
        let schema = &udf[..dot];
        if !schema.eq_ignore_ascii_case("dana") {
            return Err(err(&format!("unknown schema '{schema}' (expected dana)")));
        }
        udf = &udf[dot + 1..];
    }
    if udf.is_empty() || !udf.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return Err(err(&format!("bad UDF name '{udf}'")));
    }
    let inner = tail[open + 1..close].trim();
    let keyword_len = "values".len();
    debug_assert!(inner[..keyword_len.min(inner.len())].eq_ignore_ascii_case("values"));
    let groups_text = inner[keyword_len..].trim_start();
    if !groups_text.starts_with('(') {
        return Err(err(
            "VALUES needs at least one parenthesized row: VALUES (x, ...)",
        ));
    }
    let rows = parse_values_rows(groups_text)?;
    Ok(PointCall {
        udf: udf.to_string(),
        rows,
        backend: opts.backend,
        trace: opts.trace,
        timeout_ms: opts.timeout_ms,
        retries: opts.retries,
    })
}

/// Parses `(x, ...), (y, ...)` row groups into literal f32 vectors.
/// Rejects empty rows, non-numeric or non-finite values, unbalanced
/// parentheses, and stray text between groups.
fn parse_values_rows(text: &str) -> DanaResult<Vec<Vec<f32>>> {
    let mut rows = Vec::new();
    let mut rest = text.trim();
    loop {
        let body = rest
            .strip_prefix('(')
            .ok_or_else(|| err("expected a parenthesized VALUES row: (x, ...)"))?;
        let end = body.find(')').ok_or_else(|| err("unclosed VALUES row"))?;
        let row_text = &body[..end];
        if row_text.trim().is_empty() {
            return Err(err("VALUES row must have at least one value"));
        }
        let mut row = Vec::new();
        for piece in row_text.split(',') {
            let piece = piece.trim();
            if piece.is_empty() {
                return Err(err("empty value in VALUES row"));
            }
            let v: f32 = piece
                .parse()
                .map_err(|_| err(&format!("bad numeric value '{piece}' in VALUES row")))?;
            if !v.is_finite() {
                return Err(err(&format!("non-finite value '{piece}' in VALUES row")));
            }
            row.push(v);
        }
        rows.push(row);
        rest = body[end + 1..].trim_start();
        if rest.is_empty() {
            break;
        }
        rest = rest
            .strip_prefix(',')
            .ok_or_else(|| err("VALUES rows must be separated by commas"))?
            .trim_start();
        if rest.is_empty() {
            return Err(err("trailing comma after VALUES row"));
        }
    }
    Ok(rows)
}

/// Parses the tail of `EVALUATE dana.<udf>('<table>'[, '<metric>'])`.
fn parse_evaluate(
    s: &str,
    lower: &str,
    scan: Option<ScanSpec>,
    opts: WithOptions,
) -> DanaResult<EvaluateCall> {
    let rest = lower["evaluate".len()..].to_string();
    if !rest.starts_with([' ', '\t']) {
        return Err(err("expected EVALUATE <udf>(...)"));
    }
    let tail = s["evaluate".len()..].trim_start();
    let (udf, args) = parse_udf_call(tail)?;
    let (table, metric_name) = match args.len() {
        1 => (args[0].clone(), None),
        2 => (args[0].clone(), Some(args[1].clone())),
        n => {
            return Err(err(&format!(
                "EVALUATE takes a table and an optional metric ({n} arguments given)"
            )))
        }
    };
    let metric = match metric_name {
        None => None,
        Some(name) => Some(MetricKind::parse(&name).ok_or_else(|| {
            err(&format!(
                "unknown metric '{name}' (expected mse, log_loss, classification_accuracy, or lrmf_rmse)"
            ))
        })?),
    };
    if table.is_empty() {
        return Err(err("empty table name"));
    }
    Ok(EvaluateCall {
        udf,
        table,
        metric,
        scan,
        shards: opts.shards,
        backend: opts.backend,
        trace: opts.trace,
        timeout_ms: opts.timeout_ms,
        retries: opts.retries,
    })
}

/// Parses `dana.<udf>(arg[, arg])` from `tail`, returning the UDF name
/// (schema prefix validated and stripped) and the raw argument list.
/// Rejects trailing garbage after the closing parenthesis.
fn parse_udf_call(tail: &str) -> DanaResult<(String, Vec<String>)> {
    let open = tail
        .find('(')
        .ok_or_else(|| err("expected UDF call '(...)'"))?;
    let close = tail.rfind(')').ok_or_else(|| err("unclosed ')'"))?;
    if close < open {
        return Err(err("malformed parentheses"));
    }
    let mut udf = tail[..open].trim();
    if let Some(dot) = udf.rfind('.') {
        let schema = &udf[..dot];
        if !schema.eq_ignore_ascii_case("dana") {
            return Err(err(&format!("unknown schema '{schema}' (expected dana)")));
        }
        udf = &udf[dot + 1..];
    }
    if udf.is_empty() || !udf.chars().all(|c| c.is_alphanumeric() || c == '_') {
        return Err(err(&format!("bad UDF name '{udf}'")));
    }
    if !tail[close + 1..].trim().is_empty() {
        return Err(err("unexpected input after UDF call"));
    }
    let args = parse_args(tail[open + 1..close].trim())?;
    Ok((udf.to_string(), args))
}

/// Splits a call's argument text into individual quoted-or-bare
/// identifiers. Unbalanced/mismatched quotes are rejected per argument.
fn parse_args(text: &str) -> DanaResult<Vec<String>> {
    if text.is_empty() {
        return Err(err("UDF call needs at least one argument"));
    }
    let mut args = Vec::new();
    let mut rest = text;
    loop {
        let (arg, remainder) = split_one_arg(rest)?;
        args.push(parse_table_arg(arg)?.to_string());
        match remainder {
            None => break,
            Some(r) => {
                let r = r.trim_start();
                if r.is_empty() {
                    return Err(err("trailing comma in argument list"));
                }
                rest = r;
            }
        }
    }
    Ok(args)
}

/// Splits the first argument off `text` at a comma that is outside any
/// quotes. Returns the argument text and the remainder after the comma.
fn split_one_arg(text: &str) -> DanaResult<(&str, Option<&str>)> {
    let mut quote: Option<char> = None;
    for (i, c) in text.char_indices() {
        match (quote, c) {
            (None, '\'' | '"') => quote = Some(c),
            (Some(q), c) if c == q => quote = None,
            (None, ',') => return Ok((text[..i].trim(), Some(&text[i + 1..]))),
            _ => {}
        }
    }
    if quote.is_some() {
        return Err(err("unbalanced quote in argument list"));
    }
    Ok((text.trim(), None))
}

/// The single-argument form used by SELECT … and PREDICT's source.
fn single_arg(args: &[String]) -> DanaResult<String> {
    if args.len() != 1 {
        return Err(err("UDF takes exactly one argument (the table name)"));
    }
    if args[0].is_empty() {
        return Err(err("empty table name"));
    }
    Ok(args[0].clone())
}

/// Parses the UDF's single table-name argument: a quoted or bare
/// identifier, nothing else. Extra arguments (`dana.f('t', 1)`) and
/// unbalanced/mismatched quotes (`dana.f('t)`, `dana.f('t")`) are rejected
/// rather than silently accepted.
fn parse_table_arg(arg: &str) -> DanaResult<&str> {
    for quote in ['\'', '"'] {
        if let Some(rest) = arg.strip_prefix(quote) {
            // `'t', 1` — diagnose the extra argument, not the quoting.
            if let Some(inner) = rest.split_once(quote).map(|(t, after)| (t, after.trim())) {
                let (table, after) = inner;
                if after.starts_with(',') {
                    return Err(err("UDF takes exactly one argument (the table name)"));
                }
                if !after.is_empty() {
                    return Err(err(&format!(
                        "unexpected input after quoted table name: '{after}'"
                    )));
                }
                return Ok(table.trim());
            }
            return Err(err(&format!("unbalanced {quote} quote in table argument")));
        }
        if arg.ends_with(quote) {
            return Err(err(&format!("unbalanced {quote} quote in table argument")));
        }
    }
    // Bare identifier: a single argument with no quoting.
    if arg.contains(',') {
        return Err(err("UDF takes exactly one argument (the table name)"));
    }
    if arg.contains(['\'', '"', ' ', '\t']) {
        return Err(err(&format!("bad table argument '{arg}'")));
    }
    Ok(arg)
}

fn err(msg: &str) -> DanaError {
    DanaError::Query(msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_papers_query() {
        let q = parse_query("SELECT * FROM dana.linearR('training_data_table');").unwrap();
        assert_eq!(q.udf, "linearR");
        assert_eq!(q.table, "training_data_table");
    }

    #[test]
    fn schema_prefix_is_optional() {
        let q = parse_query("select * from svm('t1')").unwrap();
        assert_eq!(q.udf, "svm");
        assert_eq!(q.table, "t1");
    }

    #[test]
    fn case_and_quotes_flexible() {
        let q = parse_query("SELECT * FROM DANA.logisticR(\"wlan\");").unwrap();
        assert_eq!(q.udf, "logisticR");
        assert_eq!(q.table, "wlan");
        let q = parse_query("select * from dana.lrmf(netflix)").unwrap();
        assert_eq!(q.table, "netflix");
    }

    #[test]
    fn preserves_identifier_case() {
        let q = parse_query("SELECT * FROM dana.MyUdf('MyTable');").unwrap();
        assert_eq!(q.udf, "MyUdf");
        assert_eq!(q.table, "MyTable");
    }

    #[test]
    fn rejects_malformed_queries() {
        for bad in [
            "INSERT INTO t VALUES (1)",
            "SELECT x FROM dana.f('t')",
            "SELECT * FROM dana.f",
            "SELECT * FROM other.f('t')",
            "SELECT * FROM dana.f('')",
            "SELECT * FROM dana.f)t'(",
        ] {
            assert!(parse_query(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn rejects_extra_call_arguments() {
        for bad in [
            "SELECT * FROM dana.f('t', 1);",
            "SELECT * FROM dana.f('t', 'u');",
            "SELECT * FROM dana.f(t, u)",
            "SELECT * FROM dana.f('t' , )",
        ] {
            assert!(parse_query(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn rejects_unbalanced_or_mismatched_quotes() {
        for bad in [
            "SELECT * FROM dana.f('t);",
            "SELECT * FROM dana.f(t');",
            "SELECT * FROM dana.f(\"t);",
            "SELECT * FROM dana.f(t\");",
            "SELECT * FROM dana.f('t\");",
            "SELECT * FROM dana.f('a'b');",
        ] {
            assert!(parse_query(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn rejects_trailing_garbage_after_call() {
        for bad in [
            "SELECT * FROM dana.f('t') extra",
            "SELECT * FROM dana.f('t') WHERE", // bare keyword, no predicate
            "SELECT * FROM dana.f('t') HAVING x = 1",
        ] {
            assert!(parse_query(bad).is_err(), "{bad} should fail");
        }
        // A trailing semicolon and whitespace remain fine, and WHERE is a
        // legal pushdown clause now, not garbage.
        assert!(parse_query("SELECT * FROM dana.f('t')  ;  ").is_ok());
        let q = parse_query("SELECT * FROM dana.f('t') WHERE x = 1;").unwrap();
        assert_eq!(q.scan.unwrap().predicates.len(), 1);
    }

    // ---- PREDICT / EVALUATE grammar -------------------------------------

    #[test]
    fn parses_predict_into() {
        let s = parse_statement("PREDICT dana.linearR('patients') INTO 'patient_scores';").unwrap();
        assert_eq!(
            s,
            Statement::Predict(PredictCall {
                udf: "linearR".into(),
                table: "patients".into(),
                into: "patient_scores".into(),
                scan: None,
                shards: None,
                backend: BackendChoice::Auto,
                trace: false,
                timeout_ms: None,
                retries: None,
            })
        );
        // Case-insensitive keywords, optional schema, mixed quoting.
        let s = parse_statement("predict linearR(\"patients\") into scores").unwrap();
        assert_eq!(
            s,
            Statement::Predict(PredictCall {
                udf: "linearR".into(),
                table: "patients".into(),
                into: "scores".into(),
                scan: None,
                shards: None,
                backend: BackendChoice::Auto,
                trace: false,
                timeout_ms: None,
                retries: None,
            })
        );
    }

    #[test]
    fn predict_preserves_identifier_case() {
        let Statement::Predict(p) =
            parse_statement("PREDICT dana.MyUdf('MyTable') INTO 'MyScores';").unwrap()
        else {
            panic!("expected predict");
        };
        assert_eq!(p.udf, "MyUdf");
        assert_eq!(p.table, "MyTable");
        assert_eq!(p.into, "MyScores");
    }

    #[test]
    fn parses_evaluate_with_and_without_metric() {
        let s = parse_statement("EVALUATE dana.logisticR('wlan');").unwrap();
        assert_eq!(
            s,
            Statement::Evaluate(EvaluateCall {
                udf: "logisticR".into(),
                table: "wlan".into(),
                metric: None,
                scan: None,
                shards: None,
                backend: BackendChoice::Auto,
                trace: false,
                timeout_ms: None,
                retries: None,
            })
        );
        let s = parse_statement("EVALUATE dana.linearR('t', 'mse');").unwrap();
        assert_eq!(
            s,
            Statement::Evaluate(EvaluateCall {
                udf: "linearR".into(),
                table: "t".into(),
                metric: Some(MetricKind::Mse),
                scan: None,
                shards: None,
                backend: BackendChoice::Auto,
                trace: false,
                timeout_ms: None,
                retries: None,
            })
        );
        // All four metric names (and case-insensitivity) parse.
        for (name, kind) in [
            ("mse", MetricKind::Mse),
            ("log_loss", MetricKind::LogLoss),
            ("classification_accuracy", MetricKind::Accuracy),
            ("LRMF_RMSE", MetricKind::LrmfRmse),
        ] {
            let s = parse_statement(&format!("evaluate f('t', '{name}')")).unwrap();
            assert_eq!(
                s,
                Statement::Evaluate(EvaluateCall {
                    udf: "f".into(),
                    table: "t".into(),
                    metric: Some(kind),
                    scan: None,
                    shards: None,
                    backend: BackendChoice::Auto,
                    trace: false,
                    timeout_ms: None,
                    retries: None,
                }),
                "{name}"
            );
        }
    }

    #[test]
    fn statement_dispatch_still_parses_select() {
        let s = parse_statement("SELECT * FROM dana.linearR('t');").unwrap();
        assert_eq!(
            s,
            Statement::Train(QueryCall {
                udf: "linearR".into(),
                table: "t".into(),
                scan: None,
                shards: None,
                backend: BackendChoice::Auto,
                trace: false,
                timeout_ms: None,
                retries: None,
            })
        );
    }

    #[test]
    fn predict_rejects_malformed_statements() {
        for bad in [
            // Arity / missing clauses.
            "PREDICT dana.f('t');",               // no INTO
            "PREDICT dana.f('t') INTO;",          // no destination
            "PREDICT dana.f('t') INTO",           // no destination
            "PREDICT dana.f('t', 'u') INTO 'p';", // two source args
            "PREDICT dana.f() INTO 'p';",         // zero args
            "PREDICT dana.f INTO 'p';",           // no call parens
            // Quoting.
            "PREDICT dana.f('t) INTO 'p';",  // unbalanced source quote
            "PREDICT dana.f('t') INTO 'p;",  // unbalanced dest quote
            "PREDICT dana.f('t') INTO p\";", // mismatched dest quote
            // Trailing garbage / misplaced tokens.
            "PREDICT dana.f('t') WHERE x INTO 'p';", // garbage before INTO
            "PREDICTx dana.f('t') INTO 'p';",        // keyword typo
            // Unknown schema target.
            "PREDICT other.f('t') INTO 'p';",
        ] {
            assert!(parse_statement(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn evaluate_rejects_malformed_statements() {
        for bad in [
            "EVALUATE dana.f();",                    // zero args
            "EVALUATE dana.f('t', 'mse', 'x');",     // three args
            "EVALUATE dana.f('t', 'not_a_metric');", // unknown metric
            "EVALUATE dana.f('t', );",               // trailing comma
            "EVALUATE dana.f('t'\");",               // mismatched quote
            "EVALUATE dana.f('t') extra",            // trailing garbage
            "EVALUATE other.f('t');",                // unknown schema
            "EVALUATEdana.f('t');",                  // keyword typo
        ] {
            assert!(parse_statement(bad).is_err(), "{bad} should fail");
        }
    }

    // ---- EXECUTE / WITH (shards = k) grammar -----------------------------

    #[test]
    fn execute_is_a_train_synonym() {
        let s = parse_statement("EXECUTE dana.linearR('t');").unwrap();
        assert_eq!(
            s,
            Statement::Train(QueryCall {
                udf: "linearR".into(),
                table: "t".into(),
                scan: None,
                shards: None,
                backend: BackendChoice::Auto,
                trace: false,
                timeout_ms: None,
                retries: None,
            })
        );
        // Case-insensitive, schema optional, identifier case preserved.
        let s = parse_statement("execute MyUdf(\"MyTable\")").unwrap();
        let Statement::Train(q) = s else {
            panic!("expected train");
        };
        assert_eq!(q.udf, "MyUdf");
        assert_eq!(q.table, "MyTable");
    }

    #[test]
    fn with_shards_parses_on_every_statement_form() {
        let s = parse_statement("EXECUTE dana.linearR('t') WITH (shards = 4);").unwrap();
        assert_eq!(
            s,
            Statement::Train(QueryCall {
                udf: "linearR".into(),
                table: "t".into(),
                scan: None,
                shards: Some(4),
                backend: BackendChoice::Auto,
                trace: false,
                timeout_ms: None,
                retries: None,
            })
        );
        let s = parse_statement("SELECT * FROM dana.linearR('t') with (SHARDS=2)").unwrap();
        assert_eq!(
            s,
            Statement::Train(QueryCall {
                udf: "linearR".into(),
                table: "t".into(),
                scan: None,
                shards: Some(2),
                backend: BackendChoice::Auto,
                trace: false,
                timeout_ms: None,
                retries: None,
            })
        );
        let s = parse_statement("PREDICT dana.f('t') INTO 'p' WITH (shards = 8);").unwrap();
        assert_eq!(
            s,
            Statement::Predict(PredictCall {
                udf: "f".into(),
                table: "t".into(),
                into: "p".into(),
                scan: None,
                shards: Some(8),
                backend: BackendChoice::Auto,
                trace: false,
                timeout_ms: None,
                retries: None,
            })
        );
        let s = parse_statement("EVALUATE dana.f('t', 'mse') WITH (shards = 3);").unwrap();
        assert_eq!(
            s,
            Statement::Evaluate(EvaluateCall {
                udf: "f".into(),
                table: "t".into(),
                metric: Some(MetricKind::Mse),
                scan: None,
                shards: Some(3),
                backend: BackendChoice::Auto,
                trace: false,
                timeout_ms: None,
                retries: None,
            })
        );
        // parse_query handles the clause too.
        let q = parse_query("SELECT * FROM dana.f('t') WITH (shards = 16);").unwrap();
        assert_eq!(q.shards, Some(16));
    }

    #[test]
    fn malformed_with_clauses_are_rejected() {
        for bad in [
            "EXECUTE dana.f('t') WITH (shards = 0);",    // zero gang
            "EXECUTE dana.f('t') WITH (shards = -2);",   // negative
            "EXECUTE dana.f('t') WITH (shards = many);", // not a number
            "EXECUTE dana.f('t') WITH (lanes = 4);",     // unknown option
            "EXECUTE dana.f('t') WITH (shards);",        // no value
            "EXECUTE dana.f('t') WITH shards = 4;",      // unparenthesized
            "SELECT * FROM dana.f('t') WITH (shards = 70000);", // > u16
        ] {
            assert!(parse_statement(bad).is_err(), "{bad} should fail");
        }
        // A table that merely contains "with" is untouched.
        let q = parse_query("SELECT * FROM dana.f('with_t');").unwrap();
        assert_eq!(q.table, "with_t");
        assert_eq!(q.shards, None);
        // Even a quoted name shaped exactly like a WITH clause: quotes
        // are not clause boundaries, so it stays an identifier.
        let q = parse_query("SELECT * FROM dana.f('with (shards = 2)');").unwrap();
        assert_eq!(q.table, "with (shards = 2)");
        assert_eq!(q.shards, None);
    }

    #[test]
    fn predict_into_trailing_garbage_rejected() {
        assert!(parse_statement("PREDICT dana.f('t') INTO 'p' extra").is_err());
        // INTO destination with stray second token.
        assert!(parse_statement("PREDICT dana.f('t') INTO 'p' 'q'").is_err());
        // Trailing semicolon and whitespace remain fine.
        assert!(parse_statement("PREDICT dana.f('t') INTO 'p'  ;  ").is_ok());
    }

    // ---- WITH (backend = ...) grammar ------------------------------------

    fn backend_of(s: &Statement) -> BackendChoice {
        match s {
            Statement::Train(q) => q.backend,
            Statement::Predict(p) => p.backend,
            Statement::PredictPoint(p) => p.backend,
            Statement::Evaluate(e) => e.backend,
            Statement::Explain(inner) | Statement::ExplainAnalyze(inner) => backend_of(inner),
            Statement::ShowStats(_) => panic!("SHOW STATS has no backend"),
        }
    }

    #[test]
    fn with_backend_parses_on_every_statement_form() {
        for (sql, want) in [
            (
                "EXECUTE dana.linearR('t') WITH (backend = cpu);",
                BackendChoice::Cpu,
            ),
            (
                "SELECT * FROM dana.linearR('t') with (BACKEND=FPGA)",
                BackendChoice::Fpga,
            ),
            (
                "PREDICT dana.f('t') INTO 'p' WITH (backend = auto);",
                BackendChoice::Auto,
            ),
            (
                "EVALUATE dana.f('t', 'mse') WITH (backend = cpu);",
                BackendChoice::Cpu,
            ),
        ] {
            let s = parse_statement(sql).unwrap();
            assert_eq!(backend_of(&s), want, "{sql}");
        }
        // Statements without a clause default to the advisor.
        let s = parse_statement("EXECUTE dana.f('t');").unwrap();
        assert_eq!(backend_of(&s), BackendChoice::Auto);
    }

    #[test]
    fn with_clause_combines_shards_and_backend() {
        let s = parse_statement("EXECUTE dana.linearR('t') WITH (shards = 4, backend = fpga);")
            .unwrap();
        assert_eq!(
            s,
            Statement::Train(QueryCall {
                udf: "linearR".into(),
                table: "t".into(),
                scan: None,
                shards: Some(4),
                backend: BackendChoice::Fpga,
                trace: false,
                timeout_ms: None,
                retries: None,
            })
        );
        // Order-insensitive.
        let s = parse_statement("PREDICT dana.f('t') INTO 'p' WITH (backend = cpu, shards = 2);")
            .unwrap();
        assert_eq!(
            s,
            Statement::Predict(PredictCall {
                udf: "f".into(),
                table: "t".into(),
                into: "p".into(),
                scan: None,
                shards: Some(2),
                backend: BackendChoice::Cpu,
                trace: false,
                timeout_ms: None,
                retries: None,
            })
        );
    }

    #[test]
    fn malformed_backend_clauses_are_typed_errors() {
        for bad in [
            "EXECUTE dana.f('t') WITH (backend = gpu);", // unknown substrate
            "EXECUTE dana.f('t') WITH (backend);",       // no value
            "EXECUTE dana.f('t') WITH (backend = );",    // empty value
            "EXECUTE dana.f('t') WITH (backend = cpu, backend = fpga);", // duplicate
            "EXECUTE dana.f('t') WITH (shards = 2, shards = 4);", // duplicate shards
            "EXECUTE dana.f('t') WITH (backend = cpu,);", // trailing comma
        ] {
            let e = parse_statement(bad).unwrap_err();
            assert!(
                matches!(e, DanaError::Query(_)),
                "{bad} should be a typed Query error, got {e:?}"
            );
        }
        // The unknown-substrate message names the valid choices.
        let e = parse_statement("EXECUTE dana.f('t') WITH (backend = gpu);").unwrap_err();
        assert!(e.to_string().contains("expected cpu, fpga, or auto"), "{e}");
    }

    // ---- EXPLAIN grammar -------------------------------------------------

    #[test]
    fn explain_wraps_every_statement_form() {
        for sql in [
            "EXPLAIN SELECT * FROM dana.linearR('t');",
            "explain EXECUTE dana.linearR('t') WITH (shards = 2);",
            "EXPLAIN PREDICT dana.f('t') INTO 'p';",
            "Explain EVALUATE dana.f('t', 'mse') WITH (backend = cpu);",
        ] {
            let s = parse_statement(sql).unwrap();
            let Statement::Explain(inner) = s else {
                panic!("{sql} should parse as EXPLAIN");
            };
            assert!(
                !matches!(*inner, Statement::Explain(_)),
                "inner statement must not be EXPLAIN"
            );
        }
        // The inner statement parses exactly as it would bare.
        let s = parse_statement("EXPLAIN EXECUTE dana.linearR('t') WITH (backend = cpu);").unwrap();
        assert_eq!(
            s,
            Statement::Explain(Box::new(Statement::Train(QueryCall {
                udf: "linearR".into(),
                table: "t".into(),
                scan: None,
                shards: None,
                backend: BackendChoice::Cpu,
                trace: false,
                timeout_ms: None,
                retries: None,
            })))
        );
    }

    #[test]
    fn explain_rejects_malformed_forms() {
        for bad in [
            "EXPLAIN;",                                                // nothing to explain
            "EXPLAIN",                                                 // ditto
            "EXPLAINSELECT * FROM dana.f('t');",                       // keyword typo
            "EXPLAIN EXPLAIN SELECT * FROM dana.f('t');",              // nested
            "EXPLAIN INSERT INTO t VALUES (1);",                       // unexplainable inner
            "EXPLAIN SELECT * FROM dana.f('t') WITH (backend = gpu);", // bad inner clause
        ] {
            assert!(parse_statement(bad).is_err(), "{bad} should fail");
        }
        // A UDF merely *named* explain stays a plain call.
        let s = parse_statement("EXECUTE dana.explainer('t');").unwrap();
        assert!(matches!(s, Statement::Train(_)));
    }

    // ---- EXPLAIN ANALYZE / SHOW STATS / trace grammar --------------------

    #[test]
    fn explain_analyze_wraps_executable_statements_only() {
        let s = parse_statement("EXPLAIN ANALYZE EXECUTE dana.linearR('t');").unwrap();
        let Statement::ExplainAnalyze(inner) = s else {
            panic!("should parse as EXPLAIN ANALYZE");
        };
        assert!(matches!(*inner, Statement::Train(_)));
        // Keywords are case-insensitive; PREDICT/EVALUATE also wrap.
        for sql in [
            "explain analyze PREDICT dana.f('t') INTO 'p';",
            "Explain Analyze EVALUATE dana.f('t', 'mse');",
        ] {
            assert!(
                matches!(parse_statement(sql), Ok(Statement::ExplainAnalyze(_))),
                "{sql} should parse as EXPLAIN ANALYZE"
            );
        }
        // Nesting explainers is rejected with a typed error, not a panic.
        for bad in [
            "EXPLAIN ANALYZE EXPLAIN SELECT * FROM dana.f('t');",
            "EXPLAIN ANALYZE EXPLAIN ANALYZE EXECUTE dana.f('t');",
            "EXPLAIN ANALYZE SHOW STATS;",
            "EXPLAIN EXPLAIN ANALYZE EXECUTE dana.f('t');",
        ] {
            let e = parse_statement(bad).unwrap_err();
            assert!(matches!(e, DanaError::Query(_)), "{bad}: {e:?}");
        }
    }

    #[test]
    fn show_stats_parses_with_optional_subsystem_filter() {
        assert_eq!(
            parse_statement("SHOW STATS;").unwrap(),
            Statement::ShowStats(None)
        );
        // Filter names are case-folded; quoting is optional.
        for sql in [
            "show stats('POOL');",
            "SHOW STATS ( 'pool' ) ;",
            "Show Stats(pool)",
        ] {
            assert_eq!(
                parse_statement(sql).unwrap(),
                Statement::ShowStats(Some("pool".into())),
                "{sql}"
            );
        }
    }

    #[test]
    fn show_stats_unknown_subsystem_is_a_typed_error() {
        let e = parse_statement("SHOW STATS('nope');").unwrap_err();
        assert!(matches!(e, DanaError::Query(_)), "{e:?}");
        assert!(
            e.to_string().contains("unknown stats subsystem 'nope'"),
            "{e}"
        );
        // Malformed forms fail typed too.
        for bad in ["SHOW STATS('');", "SHOW STATS(;", "SHOW STATSY;"] {
            assert!(
                matches!(parse_statement(bad), Err(DanaError::Query(_))),
                "{bad} should fail typed"
            );
        }
    }

    #[test]
    fn trace_option_parses_on_every_executable_form() {
        for (sql, want_trace) in [
            ("EXECUTE dana.f('t') WITH (trace = on);", true),
            ("EXECUTE dana.f('t') WITH (trace = off);", false),
            (
                "SELECT * FROM dana.f('t') WITH (shards = 2, trace = on);",
                true,
            ),
            ("PREDICT dana.f('t') INTO 'p' WITH (trace = on);", true),
            ("EVALUATE dana.f('t', 'mse') WITH (trace = on);", true),
        ] {
            let s = parse_statement(sql).unwrap();
            assert_eq!(s.wants_trace(), want_trace, "{sql}");
        }
    }

    #[test]
    fn timeout_and_retries_options_parse_and_compose() {
        let s = parse_statement(
            "EXECUTE dana.linearR('t') WITH (timeout_ms = 250, shards = 2, backend = fpga, trace = on, retries = 5);",
        )
        .unwrap();
        assert_eq!(
            s,
            Statement::Train(QueryCall {
                udf: "linearR".into(),
                table: "t".into(),
                scan: None,
                shards: Some(2),
                backend: BackendChoice::Fpga,
                trace: true,
                timeout_ms: Some(250),
                retries: Some(5),
            })
        );
        assert_eq!(s.timeout_ms(), Some(250));
        assert_eq!(s.retries(), Some(5));

        // PREDICT and EVALUATE accept the clause too.
        let s = parse_statement("PREDICT dana.f('t') INTO 'p' WITH (timeout_ms = 9);").unwrap();
        assert_eq!(s.timeout_ms(), Some(9));
        let s = parse_statement("EVALUATE dana.f('t') WITH (retries = 0);").unwrap();
        assert_eq!(s.retries(), Some(0), "retries = 0 disables retrying");

        // EXPLAIN ANALYZE inherits the inner clause; plain EXPLAIN
        // executes nothing and reports none.
        let s =
            parse_statement("EXPLAIN ANALYZE EXECUTE dana.f('t') WITH (timeout_ms = 7);").unwrap();
        assert_eq!(s.timeout_ms(), Some(7));
        let s = parse_statement("EXPLAIN EXECUTE dana.f('t') WITH (timeout_ms = 7);").unwrap();
        assert_eq!(s.timeout_ms(), None);

        // No clause: no deadline, no override.
        let s = parse_statement("EXECUTE dana.f('t');").unwrap();
        assert_eq!(s.timeout_ms(), None);
        assert_eq!(s.retries(), None);
    }

    #[test]
    fn bad_timeout_and_retries_values_are_typed_errors() {
        let e = parse_statement("EXECUTE dana.f('t') WITH (timeout_ms = banana);").unwrap_err();
        assert!(
            e.to_string().contains("bad timeout_ms value 'banana'"),
            "{e}"
        );
        let e = parse_statement("EXECUTE dana.f('t') WITH (timeout_ms = 0);").unwrap_err();
        assert!(
            e.to_string().contains("timeout_ms must be at least 1"),
            "{e}"
        );
        let e = parse_statement("EXECUTE dana.f('t') WITH (retries = -1);").unwrap_err();
        assert!(e.to_string().contains("bad retries value '-1'"), "{e}");
        for bad in [
            "EXECUTE dana.f('t') WITH (timeout_ms = 1, timeout_ms = 2);",
            "EXECUTE dana.f('t') WITH (retries = 1, retries = 2);",
            "EXECUTE dana.f('t') WITH (timeout_ms);",
            "EXECUTE dana.f('t') WITH (timeout_ms = 18446744073709551616);", // u64 overflow
        ] {
            let e = parse_statement(bad).unwrap_err();
            assert!(matches!(e, DanaError::Query(_)), "{bad}: {e:?}");
        }
        // The unknown-option message names the full vocabulary.
        let e = parse_statement("EXECUTE dana.f('t') WITH (timeout = 5);").unwrap_err();
        assert!(
            e.to_string()
                .contains("expected shards, backend, trace, timeout_ms, or retries"),
            "{e}"
        );
    }

    #[test]
    fn show_stats_accepts_the_faults_subsystem() {
        let s = parse_statement("SHOW STATS ('faults');").unwrap();
        assert_eq!(s, Statement::ShowStats(Some("faults".into())));
        let e = parse_statement("SHOW STATS ('thermals');").unwrap_err();
        assert!(e.to_string().contains("faults, serving, or scan"), "{e}");
    }

    #[test]
    fn show_stats_accepts_the_serving_subsystem() {
        let s = parse_statement("SHOW STATS ('serving');").unwrap();
        assert_eq!(s, Statement::ShowStats(Some("serving".into())));
    }

    #[test]
    fn bad_trace_values_reuse_the_malformed_with_error() {
        for bad in [
            "EXECUTE dana.f('t') WITH (trace = banana);",
            "EXECUTE dana.f('t') WITH (trace = on, trace = on);",
            "EXECUTE dana.f('t') WITH (trace);",
        ] {
            let e = parse_statement(bad).unwrap_err();
            assert!(matches!(e, DanaError::Query(_)), "{bad}: {e:?}");
        }
        let e = parse_statement("EXECUTE dana.f('t') WITH (trace = banana);").unwrap_err();
        assert!(e.to_string().contains("bad trace value 'banana'"), "{e}");
    }

    // ---- point-form PREDICT (VALUES ...) grammar -------------------------

    #[test]
    fn parses_point_predict_single_row() {
        let s = parse_statement("PREDICT dana.linearR(VALUES (1.0, 2.5, -3.0));").unwrap();
        assert_eq!(
            s,
            Statement::PredictPoint(PointCall {
                udf: "linearR".into(),
                rows: vec![vec![1.0, 2.5, -3.0]],
                backend: BackendChoice::Auto,
                trace: false,
                timeout_ms: None,
                retries: None,
            })
        );
    }

    #[test]
    fn parses_point_predict_micro_batch_and_flexible_case() {
        let s = parse_statement("predict svm(values (1, 2), (3, 4), (5, 6))").unwrap();
        assert_eq!(
            s,
            Statement::PredictPoint(PointCall {
                udf: "svm".into(),
                rows: vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]],
                backend: BackendChoice::Auto,
                trace: false,
                timeout_ms: None,
                retries: None,
            })
        );
        // Schema prefix, free-form whitespace, scientific notation.
        let Statement::PredictPoint(p) =
            parse_statement("PREDICT DANA.MyUdf( VALUES ( 1e-2 ,  2.5E1 ) );").unwrap()
        else {
            panic!("expected point predict");
        };
        assert_eq!(p.udf, "MyUdf");
        assert_eq!(p.rows, vec![vec![0.01, 25.0]]);
    }

    #[test]
    fn point_predict_composes_with_backend_trace_timeout_retries() {
        let s = parse_statement(
            "PREDICT dana.f(VALUES (1.0)) WITH (backend = cpu, trace = on, timeout_ms = 50, retries = 2);",
        )
        .unwrap();
        let Statement::PredictPoint(p) = &s else {
            panic!("expected point predict");
        };
        assert_eq!(p.backend, BackendChoice::Cpu);
        assert!(s.wants_trace());
        assert_eq!(s.timeout_ms(), Some(50));
        assert_eq!(s.retries(), Some(2));
        // EXPLAIN and EXPLAIN ANALYZE wrap the point form like any other.
        assert!(matches!(
            parse_statement("EXPLAIN PREDICT dana.f(VALUES (1.0));").unwrap(),
            Statement::Explain(_)
        ));
        assert!(matches!(
            parse_statement("EXPLAIN ANALYZE PREDICT dana.f(VALUES (1.0));").unwrap(),
            Statement::ExplainAnalyze(_)
        ));
    }

    #[test]
    fn point_predict_rejects_shards_and_into_as_typed_errors() {
        let e = parse_statement("PREDICT dana.f(VALUES (1.0)) WITH (shards = 2);").unwrap_err();
        assert!(e.to_string().contains("no scan to shard"), "{e}");
        let e = parse_statement("PREDICT dana.f(VALUES (1.0)) INTO 'p';").unwrap_err();
        assert!(e.to_string().contains("takes no INTO"), "{e}");
    }

    #[test]
    fn point_predict_rejects_malformed_values_rows() {
        for bad in [
            "PREDICT dana.f(VALUES);",             // no rows
            "PREDICT dana.f(VALUES ());",          // empty row
            "PREDICT dana.f(VALUES (1.0), ());",   // empty second row
            "PREDICT dana.f(VALUES (1.0,));",      // trailing comma in row
            "PREDICT dana.f(VALUES (,1.0));",      // leading comma in row
            "PREDICT dana.f(VALUES (1.0,,2.0));",  // double comma
            "PREDICT dana.f(VALUES (1.0),);",      // trailing comma after row
            "PREDICT dana.f(VALUES (1.0) (2.0));", // missing separator
            "PREDICT dana.f(VALUES (banana));",    // not a number
            "PREDICT dana.f(VALUES ('1.0'));",     // quoted literal
            "PREDICT dana.f(VALUES (nan));",       // non-finite
            "PREDICT dana.f(VALUES (inf));",       // non-finite
            "PREDICT dana.f(VALUES (1.0);",        // unbalanced parens
            "PREDICT dana.f(VALUES 1.0);",         // bare value, no row parens
            "PREDICT dana.f(VALUES (1.0)) extra;", // trailing garbage
            "PREDICT other.f(VALUES (1.0));",      // unknown schema
            "PREDICT dana.(VALUES (1.0));",        // empty UDF name
        ] {
            let e = parse_statement(bad).unwrap_err();
            assert!(matches!(e, DanaError::Query(_)), "{bad}: {e:?}");
        }
        // The messages are diagnostic, not generic.
        let e = parse_statement("PREDICT dana.f(VALUES (banana));").unwrap_err();
        assert!(e.to_string().contains("bad numeric value 'banana'"), "{e}");
        let e = parse_statement("PREDICT dana.f(VALUES (nan));").unwrap_err();
        assert!(e.to_string().contains("non-finite value 'nan'"), "{e}");
    }

    // ---- WHERE / COLUMNS pushdown grammar --------------------------------

    fn scan_of(s: &Statement) -> Option<&ScanSpec> {
        match s {
            Statement::Train(q) => q.scan.as_ref(),
            Statement::Predict(p) => p.scan.as_ref(),
            Statement::Evaluate(e) => e.scan.as_ref(),
            other => panic!("no scan on {other:?}"),
        }
    }

    #[test]
    fn where_clause_parses_on_every_scanning_form() {
        for sql in [
            "EXECUTE dana.f('t') WHERE x0 < 1.5;",
            "SELECT * FROM dana.f('t') where X0 < 1.5",
            "PREDICT dana.f('t') INTO 'p' WHERE x0 < 1.5;",
            "EVALUATE dana.f('t', 'mse') WHERE x0 < 1.5;",
        ] {
            let s = parse_statement(sql).unwrap();
            let scan = scan_of(&s).unwrap_or_else(|| panic!("{sql} should carry a scan"));
            assert_eq!(scan.predicates.len(), 1, "{sql}");
            assert_eq!(scan.predicates[0].op, CmpOp::Lt, "{sql}");
            assert_eq!(scan.predicates[0].value, 1.5, "{sql}");
            assert!(scan.projection.is_none(), "{sql}");
        }
        // Column-name case is preserved (binding decides validity).
        let Statement::Train(q) =
            parse_statement("EXECUTE dana.f('t') WHERE MyCol >= -2e1").unwrap()
        else {
            panic!("expected train");
        };
        assert_eq!(q.scan.as_ref().unwrap().predicates[0].column, "MyCol");
        assert_eq!(q.scan.unwrap().predicates[0].value, -20.0);
    }

    #[test]
    fn where_conjuncts_and_every_operator_parse() {
        let s = parse_statement(
            "EXECUTE dana.f('t') WHERE a < 1 AND b <= 2 and c > 3 AND d >= 4 AND e = 5 AND f != 6 AND g <> 7;",
        )
        .unwrap();
        let scan = scan_of(&s).unwrap();
        let ops: Vec<CmpOp> = scan.predicates.iter().map(|p| p.op).collect();
        assert_eq!(
            ops,
            [
                CmpOp::Lt,
                CmpOp::Le,
                CmpOp::Gt,
                CmpOp::Ge,
                CmpOp::Eq,
                CmpOp::Ne,
                CmpOp::Ne,
            ]
        );
        assert_eq!(scan.predicates[6].column, "g");
        assert_eq!(scan.predicates[6].value, 7.0);
    }

    #[test]
    fn columns_clause_parses_and_composes_with_where() {
        let s = parse_statement("EXECUTE dana.f('t') COLUMNS (x0, x1, y);").unwrap();
        let scan = scan_of(&s).unwrap();
        assert!(scan.predicates.is_empty());
        assert_eq!(
            scan.projection,
            Some(vec!["x0".to_string(), "x1".to_string(), "y".to_string()])
        );
        // Quoted column names work; WHERE composes.
        let s = parse_statement("EXECUTE dana.f('t') WHERE y > 0 COLUMNS ('x1', \"y\");").unwrap();
        let scan = scan_of(&s).unwrap();
        assert_eq!(scan.predicates.len(), 1);
        assert_eq!(
            scan.projection,
            Some(vec!["x1".to_string(), "y".to_string()])
        );
    }

    #[test]
    fn tail_clauses_compose_in_any_order() {
        let want = parse_statement(
            "EXECUTE dana.f('t') WHERE x0 < 1 COLUMNS (x0, y) WITH (shards = 2, backend = fpga);",
        )
        .unwrap();
        for sql in [
            "EXECUTE dana.f('t') WHERE x0 < 1 WITH (shards = 2, backend = fpga) COLUMNS (x0, y);",
            "EXECUTE dana.f('t') COLUMNS (x0, y) WHERE x0 < 1 WITH (shards = 2, backend = fpga);",
            "EXECUTE dana.f('t') COLUMNS (x0, y) WITH (shards = 2, backend = fpga) WHERE x0 < 1;",
            "EXECUTE dana.f('t') WITH (shards = 2, backend = fpga) WHERE x0 < 1 COLUMNS (x0, y);",
            "EXECUTE dana.f('t') WITH (shards = 2, backend = fpga) COLUMNS (x0, y) WHERE x0 < 1;",
        ] {
            assert_eq!(parse_statement(sql).unwrap(), want, "{sql}");
        }
        // PREDICT keeps INTO ahead of the clause region.
        let s = parse_statement(
            "PREDICT dana.f('t') INTO 'p' WITH (shards = 2) WHERE x0 < 1 COLUMNS (x0);",
        )
        .unwrap();
        let Statement::Predict(p) = s else {
            panic!("expected predict");
        };
        assert_eq!(p.into, "p");
        assert_eq!(p.shards, Some(2));
        assert_eq!(p.scan.unwrap().predicates.len(), 1);
    }

    #[test]
    fn duplicate_tail_clauses_are_typed_errors() {
        for (bad, what) in [
            (
                "EXECUTE dana.f('t') WHERE x < 1 WHERE y < 2;",
                "duplicate WHERE clause",
            ),
            (
                "EXECUTE dana.f('t') COLUMNS (a) COLUMNS (b);",
                "duplicate COLUMNS clause",
            ),
            (
                "EXECUTE dana.f('t') WITH (shards = 2) WITH (shards = 3);",
                "duplicate WITH clause",
            ),
            (
                "EXECUTE dana.f('t') WHERE x < 1 COLUMNS (a) WHERE y < 2;",
                "duplicate WHERE clause",
            ),
        ] {
            let e = parse_statement(bad).unwrap_err();
            assert!(matches!(e, DanaError::Query(_)), "{bad}: {e:?}");
            assert!(e.to_string().contains(what), "{bad}: {e}");
        }
    }

    #[test]
    fn malformed_where_and_columns_clauses_are_typed_errors() {
        for bad in [
            "EXECUTE dana.f('t') WHERE x ~ 1;",      // unknown operator
            "EXECUTE dana.f('t') WHERE x < banana;", // not a number
            "EXECUTE dana.f('t') WHERE x < nan;",    // non-finite constant
            "EXECUTE dana.f('t') WHERE x < inf;",    // non-finite constant
            "EXECUTE dana.f('t') WHERE < 1;",        // missing column
            "EXECUTE dana.f('t') WHERE x y < 1;",    // bad column name
            "EXECUTE dana.f('t') WHERE x < 1 AND;",  // dangling AND
            "EXECUTE dana.f('t') WHERE AND x < 1;",  // leading AND
            "EXECUTE dana.f('t') COLUMNS ();",       // empty list
            "EXECUTE dana.f('t') COLUMNS (a,,b);",   // empty name
            "EXECUTE dana.f('t') COLUMNS (a;",       // unclosed list
            "EXECUTE dana.f('t') COLUMNS a, b;",     // unparenthesized
        ] {
            let e = parse_statement(bad).unwrap_err();
            assert!(matches!(e, DanaError::Query(_)), "{bad}: {e:?}");
        }
        // The messages are diagnostic, not generic.
        let e = parse_statement("EXECUTE dana.f('t') WHERE x < banana;").unwrap_err();
        assert!(e.to_string().contains("bad WHERE constant 'banana'"), "{e}");
        let e = parse_statement("EXECUTE dana.f('t') COLUMNS ();").unwrap_err();
        assert!(
            e.to_string().contains("COLUMNS list cannot be empty"),
            "{e}"
        );
    }

    #[test]
    fn point_predict_rejects_scan_clauses() {
        let e = parse_statement("PREDICT dana.f(VALUES (1.0)) WHERE x < 1;").unwrap_err();
        assert!(e.to_string().contains("no table scan"), "{e}");
        let e = parse_statement("PREDICT dana.f(VALUES (1.0)) COLUMNS (a);").unwrap_err();
        assert!(e.to_string().contains("no table scan"), "{e}");
    }

    #[test]
    fn scan_clauses_survive_explain_and_identifier_lookalikes() {
        // EXPLAIN wraps a filtered statement intact.
        let s = parse_statement("EXPLAIN EXECUTE dana.f('t') WHERE x < 1;").unwrap();
        let Statement::Explain(inner) = s else {
            panic!("expected explain");
        };
        assert_eq!(scan_of(&inner).unwrap().predicates.len(), 1);
        // A quoted table name shaped like a clause stays an identifier.
        let q = parse_query("SELECT * FROM dana.f('where x = 1');").unwrap();
        assert_eq!(q.table, "where x = 1");
        assert!(q.scan.is_none());
    }

    #[test]
    fn point_predict_does_not_shadow_tables_named_values() {
        // A source table merely *named* like the keyword stays the
        // materializing form: quoting marks it as an identifier.
        let s = parse_statement("PREDICT dana.f('values') INTO 'p';").unwrap();
        let Statement::Predict(p) = s else {
            panic!("expected materializing predict");
        };
        assert_eq!(p.table, "values");
        // And a bare table called values_v2 is not the point form either.
        let s = parse_statement("PREDICT dana.f(values_v2) INTO 'p';").unwrap();
        assert!(matches!(s, Statement::Predict(_)));
    }
}
