//! The reply oracle. It runs after the measured phase, never while the
//! daemon is being timed.
//!
//! * Scalar answers (`min_cover_size`, Hamiltonian path and cycle
//!   existence, vertex and edge counts) are compared with
//!   `pathcover::sequential_path_cover` and friends on the generator's own
//!   cotree.
//! * A cover must be a permutation of the vertices in the right number of
//!   paths whose consecutive pairs are adjacent. Adjacency is an LCA test
//!   on the cotree, so the Θ(m) graph is never materialised.
//! * A refusal must carry an induced P4 that `InducedP4::verify` accepts
//!   on the submitted graph.
//! * Session accept/refuse outcomes must match the generator's
//!   `IncrementalCotree` mirror.

use crate::gen::{Case, Kind, Plan, Req};
use crate::json::{self, Value};

/// Checks one reply body against the plan. `Err` describes the defect.
pub fn check(plan: &Plan, req: Req, body: &[u8]) -> Result<(), String> {
    let reply = json::parse(body).map_err(|e| format!("reply is not JSON: {e}"))?;
    match req {
        Req::Solve { graph, kind } => {
            if reply.get("type").and_then(Value::as_str) != Some("response") {
                return Err(format!("expected a response reply, got {}", short(body)));
            }
            let response = reply.get("response").ok_or("response field missing")?;
            check_response(&plan.cases[graph as usize], kind, response)
        }
        Req::Create { script } => {
            let s = &plan.scripts[script as usize];
            match &s.created {
                None => check_refusal(&reply, "session_create", &s.seed_graph()),
                Some(state) => {
                    let result = ok_result(&reply, "session_create")?;
                    expect_u64(result, "vertices", state.n as u64)?;
                    expect_u64(result, "edges", state.m)
                }
            }
        }
        Req::AddVertex { script, step } => {
            let s = &plan.scripts[script as usize];
            let st = &s.steps[step as usize];
            if st.legal {
                let result = ok_result(&reply, "session_add_vertex")?;
                expect_u64(result, "new_vertex", st.before_n as u64)?;
                expect_u64(result, "vertices", st.after.n as u64)?;
                expect_u64(result, "edges", st.after.m)
            } else {
                check_refusal(&reply, "session_add_vertex", &s.candidate(step as usize))
            }
        }
        Req::Query { script, step } => {
            let st = &plan.scripts[script as usize].steps[step as usize];
            let result = ok_result(&reply, "session_query")?;
            check_response(&st.after, st.query, result)
        }
        Req::Drop { .. } => {
            let result = ok_result(&reply, "session_drop")?;
            match result.get("dropped").and_then(Value::as_bool) {
                Some(true) => Ok(()),
                _ => Err("session_drop did not report dropped:true".to_string()),
            }
        }
    }
}

fn short(body: &[u8]) -> String {
    String::from_utf8_lossy(&body[..body.len().min(200)]).into_owned()
}

fn ok_result<'v>(reply: &'v Value, op: &str) -> Result<&'v Value, String> {
    if reply.get("op").and_then(Value::as_str) != Some(op) {
        return Err(format!("expected op {op}"));
    }
    if reply.get("ok").and_then(Value::as_bool) != Some(true) {
        let error = reply
            .get("error")
            .map(|e| format!("{e:?}"))
            .unwrap_or_default();
        return Err(format!("{op} failed: {error}"));
    }
    reply
        .get("result")
        .ok_or_else(|| format!("{op} reply has no result"))
}

fn check_refusal(reply: &Value, op: &str, graph: &pcgraph::Graph) -> Result<(), String> {
    if reply.get("op").and_then(Value::as_str) != Some(op) {
        return Err(format!("expected op {op}"));
    }
    if reply.get("ok").and_then(Value::as_bool) != Some(false) {
        return Err(format!("{op} accepted a graph the mirror refuses"));
    }
    let error = reply.get("error").ok_or("refusal without error body")?;
    if error.get("code").and_then(Value::as_str) != Some("not_a_cograph") {
        return Err(format!("unexpected refusal {error:?}"));
    }
    let p4 = error
        .get("p4")
        .and_then(Value::as_ids)
        .ok_or("refusal without p4 witness")?;
    let path: [u32; 4] = p4.try_into().map_err(|_| "p4 witness is not 4 vertices")?;
    if path.iter().any(|&v| v as usize >= graph.num_vertices()) {
        return Err(format!("p4 witness {path:?} names unknown vertices"));
    }
    if (cograph::InducedP4 { path }).verify(graph) {
        Ok(())
    } else {
        Err(format!("p4 witness {path:?} is not an induced P4"))
    }
}

fn expect_u64(obj: &Value, field: &str, want: u64) -> Result<(), String> {
    match obj.get(field).and_then(Value::as_u64) {
        Some(got) if got == want => Ok(()),
        got => Err(format!("{field}: expected {want}, got {got:?}")),
    }
}

/// Checks one query response object (`{kind, ok, answer, meta}`).
pub fn check_response(case: &Case, kind: Kind, response: &Value) -> Result<(), String> {
    if response.get("kind").and_then(Value::as_str) != Some(kind.name()) {
        return Err(format!("expected kind {}", kind.name()));
    }
    if response.get("ok").and_then(Value::as_bool) != Some(true) {
        let error = response
            .get("error")
            .map(|e| format!("{e:?}"))
            .unwrap_or_default();
        return Err(format!("{} failed: {error}", kind.name()));
    }
    let answer = response.get("answer").ok_or("answer missing")?;
    let exists = |field: &str| answer.get(field).and_then(Value::as_bool);
    match kind {
        Kind::MinCoverSize => expect_u64(answer, "size", case.min_cover as u64),
        Kind::FullCover => {
            expect_u64(answer, "size", case.min_cover as u64)?;
            if exists("verified") != Some(true) {
                return Err("cover not marked verified".to_string());
            }
            let paths = paths_of(answer.get("paths"))?;
            check_cover(case, &paths, case.min_cover)
        }
        Kind::HamiltonianPath => {
            let want = case.min_cover == 1;
            if exists("exists") != Some(want) {
                return Err(format!("hamiltonian_path exists: expected {want}"));
            }
            match (want, answer.get("path")) {
                (true, Some(path)) => check_cover(case, &paths_of(Some(path))?, 1),
                (false, None) => Ok(()),
                _ => Err("hamiltonian_path witness presence is wrong".to_string()),
            }
        }
        Kind::HamiltonianCycle => {
            if exists("exists") == Some(case.ham_cycle) {
                Ok(())
            } else {
                Err(format!(
                    "hamiltonian_cycle exists: expected {}",
                    case.ham_cycle
                ))
            }
        }
        Kind::Recognize => {
            if exists("is_cograph") != Some(true) {
                return Err("recognize did not report a cograph".to_string());
            }
            expect_u64(answer, "n", case.n as u64)?;
            expect_u64(answer, "m", case.m)
        }
    }
}

fn paths_of(value: Option<&Value>) -> Result<Vec<Vec<u32>>, String> {
    value
        .and_then(Value::as_arr)
        .ok_or("paths missing")?
        .iter()
        .map(|p| {
            p.as_ids()
                .ok_or_else(|| "path is not an id array".to_string())
        })
        .collect()
}

/// A cover is valid iff it has `want_paths` paths, every vertex appears
/// exactly once, and every consecutive pair is adjacent.
pub fn check_cover(case: &Case, paths: &[Vec<u32>], want_paths: usize) -> Result<(), String> {
    if paths.len() != want_paths {
        return Err(format!(
            "cover has {} paths, expected {want_paths}",
            paths.len()
        ));
    }
    let mut seen = vec![false; case.n];
    let mut count = 0usize;
    for path in paths {
        if path.is_empty() {
            return Err("empty path".to_string());
        }
        for &v in path {
            match seen.get_mut(v as usize) {
                Some(slot) if !*slot => *slot = true,
                Some(_) => return Err(format!("vertex {v} covered twice")),
                None => return Err(format!("vertex {v} out of range")),
            }
            count += 1;
        }
        if let Some(w) = path.windows(2).find(|w| !case.adjacent(w[0], w[1])) {
            return Err(format!("{} - {} is not an edge", w[0], w[1]));
        }
    }
    if count == case.n {
        Ok(())
    } else {
        Err(format!("cover misses {} vertices", case.n - count))
    }
}
