//! The SQL front door (§4.3): one lexer, one call shape.
//!
//! ```text
//!  SQL ──lex──► tokens ──parse──► Statement { Call | Explain | ExplainAnalyze | ShowStats }
//! ```
//!
//! "The RDBMS parses, optimizes, and executes the query while treating the
//! UDF as a black box" (§3) — the interesting query shapes are exactly the
//! UDF invocations, and every one of them parses into the same [`Call`]:
//!
//! ```text
//! statement := [ EXPLAIN [ANALYZE] ] call { ; } | SHOW STATS [ ( name ) ] { ; }
//! call      := train | predict | point | evaluate
//! train     := ( SELECT * FROM | EXECUTE ) udf ( name ) tail
//! predict   := PREDICT udf ( name ) INTO name tail
//! point     := PREDICT udf ( VALUES row { , row } ) [ WITH ( options ) ]
//! evaluate  := EVALUATE udf ( name [ , metric ] ) tail
//! tail      := { WHERE pred { AND pred } | COLUMNS ( name { , name } ) | WITH ( options ) }
//! udf       := [ dana . ] word          row  := ( number { , number } )
//! pred      := column ( < | <= | > | >= | = | != | <> ) number
//! options   := option { , option }      name := word | 'quoted' | "quoted"
//! option    := shards = k | backend = cpu|fpga|auto | trace = on|off
//!            | timeout_ms = n | retries = n
//! ```
//!
//! Keywords are case-insensitive, identifier case is preserved, a bare
//! `column` is ASCII letters, digits and `_`, and the tail clauses compose
//! in any order, each at most once. `WHERE` and
//! `COLUMNS` are the pushdown scan (rows filtered page-at-a-time before
//! extraction, zone maps skipping pages no row of which can match; only
//! the named columns reach the engine). `shards = k` runs the statement
//! on a gang of `k` accelerator instances, `backend` pins the substrate
//! or leaves it to the advisor (`auto`, the default), `trace = on`
//! attaches the lifecycle trace, `timeout_ms` is the deadline and
//! `retries` the transient-fault budget. `EXPLAIN` prices the call on
//! every backend without running it; `EXPLAIN ANALYZE` runs it traced.
//!
//! The lexer (`lex`) is the only code that looks at quotes or whitespace,
//! and the only code that indexes the source by byte offset; a quoted
//! string's contents are opaque, so `'with (x = 1)'` is a table name. The parser is a recursive descent
//! over the token slice and answers every malformed input — any UTF-8
//! string at all — with a typed [`DanaError::Query`], never a panic.

use dana_infer::MetricKind;
use dana_scan::{CmpOp, Predicate, ScanSpec};

use crate::advisor::BackendChoice;
use crate::error::{DanaError, DanaResult};
use crate::plan::PlanOp;

/// A call's `WITH (...)` options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WithOptions {
    /// `shards = k`: gang size for intra-query parallelism (`None` =
    /// serial).
    pub shards: Option<u16>,
    /// `backend = ...`: the requested execution substrate.
    pub backend: BackendChoice,
    /// `trace = on`: attach a query-lifecycle trace to the reply.
    pub trace: bool,
    /// `timeout_ms = n`: query deadline; past it, cooperative
    /// cancellation returns a typed deadline error (`None` = the
    /// server's default, if any).
    pub timeout_ms: Option<u64>,
    /// `retries = n`: transient-fault retry budget override (`None` =
    /// the server's default policy).
    pub retries: Option<u32>,
}

/// One accelerated-UDF invocation — the single shape every verb parses
/// into and every typed request lowers through.
#[derive(Debug, Clone, PartialEq)]
pub struct Call {
    /// What the call does with the tuples it scans: every [`PlanOp`] is
    /// a statement the parser produces, so every plan is one a statement
    /// can name.
    pub op: PlanOp,
    pub udf: String,
    /// The scanned table (empty for [`PlanOp::Point`], which scans none).
    pub table: String,
    /// `WHERE`/`COLUMNS` pushdown spec compiled at parse time (`None` = a
    /// plain full-table scan).
    pub scan: Option<ScanSpec>,
    pub with: WithOptions,
}

/// Any statement the front door accepts.
#[derive(Debug, Clone, PartialEq)]
pub enum Statement {
    /// `SELECT * FROM dana.<udf>('<table>')` / `EXECUTE …` (train),
    /// `PREDICT … INTO …`, `PREDICT …(VALUES …)` or `EVALUATE …`.
    Call(Call),
    /// `EXPLAIN <call>` — price the call on every backend without
    /// running it.
    Explain(Call),
    /// `EXPLAIN ANALYZE <call>` — execute the call with the lifecycle
    /// trace enabled and render the span tree alongside the advisor's
    /// prediction.
    ExplainAnalyze(Call),
    /// `SHOW STATS [('<subsystem>')]` — snapshot the metrics registry.
    ShowStats(Option<String>),
}

impl Statement {
    /// The call this statement names — every form but SHOW STATS has one.
    pub fn call(&self) -> Option<&Call> {
        match self {
            Statement::Call(c) | Statement::Explain(c) | Statement::ExplainAnalyze(c) => Some(c),
            Statement::ShowStats(_) => None,
        }
    }

    /// The call this statement executes: its own, or the one EXPLAIN
    /// ANALYZE wraps. Plain EXPLAIN prices its call without running it.
    fn executed(&self) -> Option<&Call> {
        self.call()
            .filter(|_| !matches!(self, Statement::Explain(_)))
    }

    /// The `WITH (timeout_ms = n)` deadline of the call this statement
    /// executes, if any.
    pub fn timeout_ms(&self) -> Option<u64> {
        self.executed()?.with.timeout_ms
    }

    /// The `WITH (retries = n)` retry-budget override of the call this
    /// statement executes.
    pub fn retries(&self) -> Option<u32> {
        self.executed()?.with.retries
    }
}

/// Parses any front-door statement.
pub fn parse_statement(sql: &str) -> DanaResult<Statement> {
    let mut toks = lex(sql)?;
    while toks.last().is_some_and(|t| t.is_punct(";")) {
        toks.pop();
    }
    let mut p = Parser {
        toks: &toks,
        pos: 0,
    };
    Ok(if p.keyword("explain") {
        if p.keyword("analyze") {
            Statement::ExplainAnalyze(p.call()?)
        } else {
            Statement::Explain(p.call()?)
        }
    } else if p.keyword("show") {
        Statement::ShowStats(p.show_stats()?)
    } else {
        Statement::Call(p.call()?)
    })
}

// ---- lexer ----------------------------------------------------------------

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// A maximal run of characters that are not whitespace, quotes or
    /// punctuation: keywords, identifiers, `dana.f`, and numbers (`-2e1`)
    /// — the clause that wants a number parses the word.
    Word,
    /// `'…'` or `"…"`; the contents are opaque.
    Quoted,
    /// One of `( ) , ; * = < > !`, or a two-character comparison.
    Punct,
}

#[derive(Debug, Clone, Copy)]
struct Token<'a> {
    kind: Kind,
    /// The token's source text (a quoted string's contents, unquoted).
    text: &'a str,
    /// Byte offset of the token in the statement, for error text.
    at: usize,
}

impl Token<'_> {
    fn is_punct(&self, p: &str) -> bool {
        self.kind == Kind::Punct && self.text == p
    }
}

fn is_punct(c: char) -> bool {
    matches!(c, '(' | ')' | ',' | ';' | '*' | '=' | '<' | '>' | '!')
}

/// Splits `sql` into tokens. Every slice boundary is a `char` boundary:
/// `rest` only ever advances past whole characters or to a `find` result.
fn lex(sql: &str) -> DanaResult<Vec<Token<'_>>> {
    let mut toks = Vec::with_capacity(sql.len() / 4);
    let mut rest = sql.trim_start();
    while let Some(c) = rest.chars().next() {
        let at = sql.len() - rest.len();
        let (kind, text, len) = if c == '\'' || c == '"' {
            let body = &rest[1..];
            let end = body
                .find(c)
                .ok_or_else(|| err(&format!("unbalanced {c} quote at offset {at}")))?;
            (Kind::Quoted, &body[..end], end + 2)
        } else if is_punct(c) {
            let two = matches!(
                (c, rest.as_bytes().get(1)),
                ('<' | '>' | '!', Some(b'=')) | ('<', Some(b'>'))
            );
            let len = 1 + two as usize;
            (Kind::Punct, &rest[..len], len)
        } else {
            let end = rest
                .find(|c: char| c.is_whitespace() || c == '\'' || c == '"' || is_punct(c))
                .unwrap_or(rest.len());
            (Kind::Word, &rest[..end], end)
        };
        toks.push(Token { kind, text, at });
        rest = rest[len..].trim_start();
    }
    Ok(toks)
}

// ---- parser ---------------------------------------------------------------

/// A cursor over the statement's tokens (trailing `;` already dropped).
struct Parser<'a> {
    toks: &'a [Token<'a>],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn peek(&self) -> Option<Token<'a>> {
        self.toks.get(self.pos).copied()
    }

    /// `msg`, followed by where the parse stopped.
    fn fail(&self, msg: &str) -> DanaError {
        match self.peek() {
            Some(t) => err(&format!("{msg} (at '{}', offset {})", t.text, t.at)),
            None => err(&format!("{msg} (at end of statement)")),
        }
    }

    /// Consumes the next token if it is the bare word `kw`, in any case —
    /// the one keyword test.
    fn keyword(&mut self, kw: &str) -> bool {
        let hit = self
            .peek()
            .is_some_and(|t| t.kind == Kind::Word && t.text.eq_ignore_ascii_case(kw));
        self.pos += hit as usize;
        hit
    }

    /// Consumes the next token if it is the punctuation `p`.
    fn punct(&mut self, p: &str) -> bool {
        let hit = self.peek().is_some_and(|t| t.is_punct(p));
        self.pos += hit as usize;
        hit
    }

    /// [`Parser::punct`], or the typed error `msg`.
    fn expect(&mut self, p: &str, msg: &str) -> DanaResult<()> {
        if self.punct(p) {
            Ok(())
        } else {
            Err(self.fail(msg))
        }
    }

    /// `[EXPLAIN [ANALYZE]]`'s operand: a verb, its UDF call, and the
    /// tail clauses, through the end of the statement.
    fn call(&mut self) -> DanaResult<Call> {
        let select = self.keyword("select");
        if select {
            self.expect("*", "expected SELECT *")?;
            if !self.keyword("from") {
                return Err(self.fail("expected FROM"));
            }
        }
        // `EXECUTE` — the paper's verb for running a deployed accelerator
        // — is synonymous with the SELECT form.
        let (op, udf, table) = if select || self.keyword("execute") {
            let udf = self.udf_name()?;
            (PlanOp::Train, udf, self.table_arg()?)
        } else if self.keyword("predict") {
            self.predict()?
        } else if self.keyword("evaluate") {
            let udf = self.udf_name()?;
            let args = self.name_list("UDF argument")?;
            let (table, metric) = match args.as_slice() {
                [table] => (table, None),
                [table, name] => (
                    table,
                    Some(MetricKind::parse(name).ok_or_else(|| {
                        err(&format!(
                            "unknown metric '{name}' (expected mse, log_loss, classification_accuracy, or lrmf_rmse)"
                        ))
                    })?),
                ),
                _ => {
                    return Err(err(&format!(
                        "EVALUATE takes a table and an optional metric ({} arguments given)",
                        args.len()
                    )))
                }
            };
            (PlanOp::Evaluate { metric }, udf, table.clone())
        } else {
            return Err(self.fail("expected SELECT, EXECUTE, PREDICT or EVALUATE"));
        };
        let (scan, with) = self.tail_clauses()?;
        if matches!(op, PlanOp::Point { .. }) {
            if scan.is_some() {
                return Err(err(
                    "point-form PREDICT (VALUES ...) has no table scan; drop the WHERE/COLUMNS clause",
                ));
            }
            if with.shards.is_some() {
                return Err(err(
                    "point-form PREDICT (VALUES ...) has no scan to shard; drop the 'shards' option",
                ));
            }
        }
        Ok(Call {
            op,
            udf,
            table,
            scan,
            with,
        })
    }

    /// The rest of `PREDICT`: `<udf>('<table>') INTO '<dest>'`, or the
    /// point form `<udf>(VALUES (x, ...), ...)` — literal rows, nothing
    /// scanned, nothing materialized. The point form is exactly a bare
    /// `VALUES` followed by a row's `(`, so a table merely *named* values
    /// stays the table form.
    fn predict(&mut self) -> DanaResult<(PlanOp, String, String)> {
        let udf = self.udf_name()?;
        if let [values, open, ..] = &self.toks[self.pos..] {
            if values.kind == Kind::Word
                && values.text.eq_ignore_ascii_case("values")
                && open.is_punct("(")
            {
                self.pos += 1;
                let rows = self.values_rows()?;
                if self.keyword("into") {
                    return Err(err(
                        "point-form PREDICT (VALUES ...) returns predictions inline and takes no INTO",
                    ));
                }
                return Ok((PlanOp::Point { rows }, udf, String::new()));
            }
        }
        let table = self.table_arg()?;
        if !self.keyword("into") {
            return Err(self.fail("PREDICT requires INTO '<table>'"));
        }
        if self.peek().is_none() {
            return Err(err("INTO needs a destination table name"));
        }
        let dest = self.name_arg("destination table name")?;
        Ok((PlanOp::PredictInto { dest }, udf, table))
    }

    /// `[dana.]<udf>(` — the UDF's name (schema prefix validated and
    /// stripped) and the call's opening parenthesis.
    fn udf_name(&mut self) -> DanaResult<String> {
        let text = match self.peek() {
            Some(t) if t.kind == Kind::Word => {
                self.pos += 1;
                t.text
            }
            _ => "",
        };
        let name = match text.rsplit_once('.') {
            Some((schema, _)) if !schema.eq_ignore_ascii_case("dana") => {
                return Err(err(&format!("unknown schema '{schema}' (expected dana)")))
            }
            Some((_, name)) => name,
            None => text,
        };
        if name.is_empty() || !name.chars().all(|c| c.is_alphanumeric() || c == '_') {
            return Err(err(&format!("bad UDF name '{name}'")));
        }
        self.expect("(", "expected UDF call '(...)'")?;
        Ok(name.to_string())
    }

    /// A quoted (contents trimmed, otherwise opaque) or bare name; `what`
    /// names it in the error.
    fn name_arg(&mut self, what: &str) -> DanaResult<String> {
        match self.peek() {
            Some(t) if t.kind != Kind::Punct => {
                self.pos += 1;
                match t.text.trim() {
                    "" => Err(err(&format!("empty {what}"))),
                    name => Ok(name.to_string()),
                }
            }
            _ => Err(self.fail(&format!("expected a {what}"))),
        }
    }

    /// `name [, name]* )` — a call's arguments or a `COLUMNS` list, the
    /// opening parenthesis already consumed. An empty list comes back
    /// empty for the caller to word.
    fn name_list(&mut self, what: &str) -> DanaResult<Vec<String>> {
        let mut names = Vec::new();
        if self.punct(")") {
            return Ok(names);
        }
        loop {
            names.push(self.name_arg(what)?);
            if self.punct(")") {
                return Ok(names);
            }
            self.expect(",", "expected ',' or ')' in a parenthesized list")?;
        }
    }

    /// The single-argument list used by SELECT/EXECUTE and PREDICT's
    /// source: `'<table>')`.
    fn table_arg(&mut self) -> DanaResult<String> {
        match self.name_list("table name")?.as_slice() {
            [] => Err(err("UDF call needs at least one argument")),
            [table] => Ok(table.clone()),
            _ => Err(err("UDF takes exactly one argument (the table name)")),
        }
    }

    /// `(x, ...) [, (y, ...)]* )` — the point form's literal rows through
    /// the call's closing parenthesis. Every value is a finite f32.
    fn values_rows(&mut self) -> DanaResult<Vec<Vec<f32>>> {
        let mut rows = Vec::new();
        loop {
            self.expect("(", "expected a parenthesized VALUES row: (x, ...)")?;
            let mut row = Vec::new();
            loop {
                row.push(self.number("bad numeric value", "non-finite value")?);
                if self.punct(")") {
                    break;
                }
                self.expect(",", "expected ',' or ')' in a VALUES row")?;
            }
            rows.push(row);
            if self.punct(")") {
                return Ok(rows);
            }
            self.expect(",", "VALUES rows must be separated by commas")?;
        }
    }

    /// The next token as a finite f32; `bad` and `non_finite` word the
    /// two refusals.
    fn number(&mut self, bad: &str, non_finite: &str) -> DanaResult<f32> {
        let Some(t) = self.peek().filter(|t| t.kind == Kind::Word) else {
            return Err(self.fail(bad));
        };
        self.pos += 1;
        let v: f32 = t
            .text
            .parse()
            .map_err(|_| err(&format!("{bad} '{}'", t.text)))?;
        if !v.is_finite() {
            return Err(err(&format!("{non_finite} '{}'", t.text)));
        }
        Ok(v)
    }

    /// The optional trailing clauses — `WHERE <preds>`, `COLUMNS (…)`,
    /// `WITH (opts)` — through the end of the statement. They compose
    /// **in any order**, each at most once; a duplicate is a typed error.
    fn tail_clauses(&mut self) -> DanaResult<(Option<ScanSpec>, WithOptions)> {
        let mut predicates: Option<Vec<Predicate>> = None;
        let mut projection: Option<Vec<String>> = None;
        let mut with: Option<WithOptions> = None;
        while self.peek().is_some() {
            if self.keyword("where") {
                if predicates.is_some() {
                    return Err(err("duplicate WHERE clause"));
                }
                predicates = Some(self.predicates()?);
            } else if self.keyword("columns") {
                if projection.is_some() {
                    return Err(err("duplicate COLUMNS clause"));
                }
                self.expect(
                    "(",
                    "COLUMNS list must be parenthesized: COLUMNS (c1, c2, ...)",
                )?;
                let columns = self.name_list("column name in COLUMNS list")?;
                if columns.is_empty() {
                    return Err(err("COLUMNS list cannot be empty"));
                }
                projection = Some(columns);
            } else if self.keyword("with") {
                if with.is_some() {
                    return Err(err("duplicate WITH clause"));
                }
                self.expect(
                    "(",
                    "WITH options must be parenthesized: WITH (opt = value, ...)",
                )?;
                with = Some(self.with_options()?);
            } else {
                return Err(self.fail("unexpected input after statement"));
            }
        }
        let scan = (predicates.is_some() || projection.is_some()).then(|| ScanSpec {
            predicates: predicates.unwrap_or_default(),
            projection,
        });
        Ok((scan, with.unwrap_or_default()))
    }

    /// A `WHERE` body: `<column> <op> <number> [AND …]`.
    fn predicates(&mut self) -> DanaResult<Vec<Predicate>> {
        let mut predicates = Vec::new();
        loop {
            let Some(column) = self.peek().filter(|t| t.kind == Kind::Word) else {
                return Err(self.fail("WHERE needs a predicate: <column> <op> <number>"));
            };
            let ident = |c: char| c.is_ascii_alphanumeric() || c == '_';
            if !column.text.chars().all(ident) {
                return Err(err(&format!("bad WHERE column name '{}'", column.text)));
            }
            self.pos += 1;
            let Some(op) = self
                .peek()
                .filter(|t| t.kind == Kind::Punct)
                .and_then(|t| CmpOp::parse(t.text))
            else {
                return Err(self.fail("bad WHERE predicate (expected <column> <op> <number>)"));
            };
            self.pos += 1;
            predicates.push(Predicate {
                column: column.text.to_string(),
                op,
                value: self.number("bad WHERE constant", "non-finite WHERE constant")?,
            });
            if !self.keyword("and") {
                return Ok(predicates);
            }
        }
    }

    /// `opt = v [, opt = v]* )` — the interior of a `WITH` clause, the
    /// opening parenthesis already consumed. A group that is *not* a
    /// well-formed option list is a typed error, not silently ignored.
    fn with_options(&mut self) -> DanaResult<WithOptions> {
        let mut opts = WithOptions::default();
        let mut seen: Vec<&str> = Vec::new();
        loop {
            let (key, value) = match &self.toks[self.pos..] {
                [key, eq, value, ..]
                    if key.kind == Kind::Word && eq.is_punct("=") && value.kind == Kind::Word =>
                {
                    (key.text, value.text)
                }
                _ => return Err(self.fail("WITH option must be <name> = <value>")),
            };
            self.pos += 3;
            if seen.iter().any(|s| s.eq_ignore_ascii_case(key)) {
                return Err(err(&format!("duplicate WITH option '{key}'")));
            }
            seen.push(key);
            let is = |name: &str| key.eq_ignore_ascii_case(name);
            if is("shards") {
                let n: u16 = value
                    .parse()
                    .map_err(|_| err(&format!("bad shard count '{value}'")))?;
                if n == 0 {
                    return Err(err("shards must be at least 1"));
                }
                opts.shards = Some(n);
            } else if is("backend") {
                opts.backend = BackendChoice::parse(value)?;
            } else if is("trace") {
                opts.trace = if value.eq_ignore_ascii_case("on") {
                    true
                } else if value.eq_ignore_ascii_case("off") {
                    false
                } else {
                    return Err(err(&format!(
                        "bad trace value '{value}' (expected on or off)"
                    )));
                };
            } else if is("timeout_ms") {
                let ms: u64 = value
                    .parse()
                    .map_err(|_| err(&format!("bad timeout_ms value '{value}'")))?;
                if ms == 0 {
                    return Err(err("timeout_ms must be at least 1"));
                }
                opts.timeout_ms = Some(ms);
            } else if is("retries") {
                let n: u32 = value
                    .parse()
                    .map_err(|_| err(&format!("bad retries value '{value}'")))?;
                opts.retries = Some(n);
            } else {
                return Err(err(&format!(
                    "unknown WITH option '{key}' (expected shards, backend, trace, timeout_ms, or retries)"
                )));
            }
            if self.punct(")") {
                return Ok(opts);
            }
            self.expect(",", "expected ',' or ')' in WITH options")?;
        }
    }

    /// The rest of `SHOW STATS [('<subsystem>')]` — the metrics-registry
    /// snapshot query. The subsystem filter is case-folded to its entry
    /// in [`dana_obs::SUBSYSTEMS`], so an unknown name is a typed query
    /// error before anything executes.
    fn show_stats(&mut self) -> DanaResult<Option<String>> {
        if !self.keyword("stats") {
            return Err(self.fail("expected SHOW STATS"));
        }
        if self.peek().is_none() {
            return Ok(None);
        }
        self.expect("(", "expected SHOW STATS [('<subsystem>')]")?;
        let name = self.name_arg("stats subsystem name")?;
        let known = dana_obs::SUBSYSTEMS
            .iter()
            .find(|s| s.eq_ignore_ascii_case(&name))
            .ok_or_else(|| {
                err(&format!(
                    "unknown stats subsystem '{name}' (expected admission, pool, buffer, sessions, engine, faults, serving, or scan)"
                ))
            })?;
        self.expect(")", "expected SHOW STATS ('<subsystem>')")?;
        if self.peek().is_some() {
            return Err(self.fail("unexpected input after statement"));
        }
        Ok(Some(known.to_string()))
    }
}

fn err(msg: &str) -> DanaError {
    DanaError::Query(msg.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Parses a training statement; any other statement is an error.
    fn parse_query(sql: &str) -> DanaResult<Call> {
        match parse_statement(sql)? {
            Statement::Call(call) if call.op == PlanOp::Train => Ok(call),
            _ => Err(err("expected a training statement")),
        }
    }

    /// The call a scan-less statement parses to.
    fn call(op: PlanOp, udf: &str, table: &str, with: WithOptions) -> Call {
        Call {
            op,
            udf: udf.into(),
            table: table.into(),
            scan: None,
            with,
        }
    }

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
            Statement::Call(call(
                PlanOp::PredictInto {
                    dest: "patient_scores".into()
                },
                "linearR",
                "patients",
                WithOptions::default()
            ))
        );
        // Case-insensitive keywords, optional schema, mixed quoting.
        let s = parse_statement("predict linearR(\"patients\") into scores").unwrap();
        assert_eq!(
            s,
            Statement::Call(call(
                PlanOp::PredictInto {
                    dest: "scores".into()
                },
                "linearR",
                "patients",
                WithOptions::default()
            ))
        );
        // Quoted names are opaque, multi-byte contents included.
        assert_eq!(
            parse_statement("PREDICT dana.f('t') INTO 'é'").unwrap(),
            Statement::Call(call(
                PlanOp::PredictInto { dest: "é".into() },
                "f",
                "t",
                WithOptions::default()
            ))
        );
    }

    #[test]
    fn predict_preserves_identifier_case() {
        let Statement::Call(p) =
            parse_statement("PREDICT dana.MyUdf('MyTable') INTO 'MyScores';").unwrap()
        else {
            panic!("expected a call");
        };
        assert_eq!(p.udf, "MyUdf");
        assert_eq!(p.table, "MyTable");
        assert_eq!(
            p.op,
            PlanOp::PredictInto {
                dest: "MyScores".into()
            }
        );
    }

    #[test]
    fn parses_evaluate_with_and_without_metric() {
        let s = parse_statement("EVALUATE dana.logisticR('wlan');").unwrap();
        assert_eq!(
            s,
            Statement::Call(call(
                PlanOp::Evaluate { metric: None },
                "logisticR",
                "wlan",
                WithOptions::default()
            ))
        );
        let s = parse_statement("EVALUATE dana.linearR('t', 'mse');").unwrap();
        assert_eq!(
            s,
            Statement::Call(call(
                PlanOp::Evaluate {
                    metric: Some(MetricKind::Mse)
                },
                "linearR",
                "t",
                WithOptions::default()
            ))
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
                Statement::Call(call(
                    PlanOp::Evaluate { metric: Some(kind) },
                    "f",
                    "t",
                    WithOptions::default()
                )),
                "{name}"
            );
        }
    }

    #[test]
    fn statement_dispatch_still_parses_select() {
        let s = parse_statement("SELECT * FROM dana.linearR('t');").unwrap();
        assert_eq!(
            s,
            Statement::Call(call(PlanOp::Train, "linearR", "t", WithOptions::default()))
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
            Statement::Call(call(PlanOp::Train, "linearR", "t", WithOptions::default()))
        );
        // Case-insensitive, schema optional, identifier case preserved.
        let s = parse_statement("execute MyUdf(\"MyTable\")").unwrap();
        let Statement::Call(q) = s else {
            panic!("expected a call");
        };
        assert_eq!(q.op, PlanOp::Train);
        assert_eq!(q.udf, "MyUdf");
        assert_eq!(q.table, "MyTable");
    }

    #[test]
    fn with_shards_parses_on_every_statement_form() {
        let s = parse_statement("EXECUTE dana.linearR('t') WITH (shards = 4);").unwrap();
        assert_eq!(
            s,
            Statement::Call(call(
                PlanOp::Train,
                "linearR",
                "t",
                WithOptions {
                    shards: Some(4),
                    ..WithOptions::default()
                }
            ))
        );
        let s = parse_statement("SELECT * FROM dana.linearR('t') with (SHARDS=2)").unwrap();
        assert_eq!(
            s,
            Statement::Call(call(
                PlanOp::Train,
                "linearR",
                "t",
                WithOptions {
                    shards: Some(2),
                    ..WithOptions::default()
                }
            ))
        );
        let s = parse_statement("PREDICT dana.f('t') INTO 'p' WITH (shards = 8);").unwrap();
        assert_eq!(
            s,
            Statement::Call(call(
                PlanOp::PredictInto { dest: "p".into() },
                "f",
                "t",
                WithOptions {
                    shards: Some(8),
                    ..WithOptions::default()
                }
            ))
        );
        let s = parse_statement("EVALUATE dana.f('t', 'mse') WITH (shards = 3);").unwrap();
        assert_eq!(
            s,
            Statement::Call(call(
                PlanOp::Evaluate {
                    metric: Some(MetricKind::Mse)
                },
                "f",
                "t",
                WithOptions {
                    shards: Some(3),
                    ..WithOptions::default()
                }
            ))
        );
        // parse_query handles the clause too.
        let q = parse_query("SELECT * FROM dana.f('t') WITH (shards = 16);").unwrap();
        assert_eq!(q.with.shards, Some(16));
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
        assert_eq!(q.with.shards, None);
        // Even a quoted name shaped exactly like a WITH clause: quotes
        // are not clause boundaries, so it stays an identifier.
        let q = parse_query("SELECT * FROM dana.f('with (shards = 2)');").unwrap();
        assert_eq!(q.table, "with (shards = 2)");
        assert_eq!(q.with.shards, None);
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
        s.call().expect("SHOW STATS has no backend").with.backend
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
            Statement::Call(call(
                PlanOp::Train,
                "linearR",
                "t",
                WithOptions {
                    shards: Some(4),
                    backend: BackendChoice::Fpga,
                    ..WithOptions::default()
                }
            ))
        );
        // Order-insensitive.
        let s = parse_statement("PREDICT dana.f('t') INTO 'p' WITH (backend = cpu, shards = 2);")
            .unwrap();
        assert_eq!(
            s,
            Statement::Call(call(
                PlanOp::PredictInto { dest: "p".into() },
                "f",
                "t",
                WithOptions {
                    shards: Some(2),
                    backend: BackendChoice::Cpu,
                    ..WithOptions::default()
                }
            ))
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
            assert!(
                matches!(s, Statement::Explain(_)),
                "{sql} should parse as EXPLAIN"
            );
        }
        // The inner statement parses exactly as it would bare.
        let s = parse_statement("EXPLAIN EXECUTE dana.linearR('t') WITH (backend = cpu);").unwrap();
        assert_eq!(
            s,
            Statement::Explain(call(
                PlanOp::Train,
                "linearR",
                "t",
                WithOptions {
                    backend: BackendChoice::Cpu,
                    ..WithOptions::default()
                }
            ))
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
        assert!(matches!(s, Statement::Call(_)));
    }

    // ---- EXPLAIN ANALYZE / SHOW STATS / trace grammar --------------------

    #[test]
    fn explain_analyze_wraps_executable_statements_only() {
        let s = parse_statement("EXPLAIN ANALYZE EXECUTE dana.linearR('t');").unwrap();
        let Statement::ExplainAnalyze(inner) = s else {
            panic!("should parse as EXPLAIN ANALYZE");
        };
        assert_eq!(inner.op, PlanOp::Train);
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
            let traced = matches!(&s, Statement::Call(c) if c.with.trace);
            assert_eq!(traced, want_trace, "{sql}");
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
            Statement::Call(call(
                PlanOp::Train,
                "linearR",
                "t",
                WithOptions {
                    shards: Some(2),
                    backend: BackendChoice::Fpga,
                    trace: true,
                    timeout_ms: Some(250),
                    retries: Some(5),
                }
            ))
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
            Statement::Call(call(
                PlanOp::Point {
                    rows: vec![vec![1.0, 2.5, -3.0]]
                },
                "linearR",
                "",
                WithOptions::default()
            ))
        );
    }

    #[test]
    fn parses_point_predict_micro_batch_and_flexible_case() {
        let s = parse_statement("predict svm(values (1, 2), (3, 4), (5, 6))").unwrap();
        assert_eq!(
            s,
            Statement::Call(call(
                PlanOp::Point {
                    rows: vec![vec![1.0, 2.0], vec![3.0, 4.0], vec![5.0, 6.0]]
                },
                "svm",
                "",
                WithOptions::default()
            ))
        );
        // Schema prefix, free-form whitespace, scientific notation.
        let Statement::Call(p) =
            parse_statement("PREDICT DANA.MyUdf( VALUES ( 1e-2 ,  2.5E1 ) );").unwrap()
        else {
            panic!("expected a call");
        };
        assert_eq!(p.udf, "MyUdf");
        assert_eq!(
            p.op,
            PlanOp::Point {
                rows: vec![vec![0.01, 25.0]]
            }
        );
    }

    #[test]
    fn point_predict_composes_with_backend_trace_timeout_retries() {
        let s = parse_statement(
            "PREDICT dana.f(VALUES (1.0)) WITH (backend = cpu, trace = on, timeout_ms = 50, retries = 2);",
        )
        .unwrap();
        let Statement::Call(p) = &s else {
            panic!("expected a call");
        };
        assert!(matches!(p.op, PlanOp::Point { .. }));
        assert_eq!(p.with.backend, BackendChoice::Cpu);
        assert!(p.with.trace);
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
            Statement::Call(c) => c.scan.as_ref(),
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
        let Statement::Call(q) =
            parse_statement("EXECUTE dana.f('t') WHERE MyCol >= -2e1").unwrap()
        else {
            panic!("expected a call");
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
        let Statement::Call(p) = s else {
            panic!("expected a call");
        };
        assert_eq!(p.op, PlanOp::PredictInto { dest: "p".into() });
        assert_eq!(p.with.shards, Some(2));
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
        // Multi-byte input is lexed at character boundaries: a non-ASCII
        // bare column name is refused by name, not by a slicing panic.
        for (bad, column) in [
            ("SELECT * FROM dana.f('t') WHERE é > 1", "'é'"),
            (
                "SELECT * FROM dana.f('t') WHERE x0 < 1 AND 日本 = 2",
                "'日本'",
            ),
        ] {
            let e = parse_statement(bad).unwrap_err();
            assert!(matches!(e, DanaError::Query(_)), "{bad}: {e:?}");
            assert!(e.to_string().contains("bad WHERE column name"), "{e}");
            assert!(e.to_string().contains(column), "{e}");
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
        assert_eq!(inner.scan.unwrap().predicates.len(), 1);
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
        let Statement::Call(p) = s else {
            panic!("expected a call");
        };
        assert!(matches!(p.op, PlanOp::PredictInto { .. }));
        assert_eq!(p.table, "values");
        // And a bare table called values_v2 is not the point form either.
        let s = parse_statement("PREDICT dana.f(values_v2) INTO 'p';").unwrap();
        assert!(matches!(
            s,
            Statement::Call(Call {
                op: PlanOp::PredictInto { .. },
                ..
            })
        ));
    }
}
