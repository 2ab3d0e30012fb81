//! End-to-end tests of the `imprecise` command-line binary: the full
//! integrate → stats → query → prune → feedback cycle over real files,
//! exactly as a downstream user would drive it.

use std::path::PathBuf;
use std::process::{Command, Output};

struct Workdir {
    dir: PathBuf,
}

impl Workdir {
    fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("imprecise-cli-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create workdir");
        Workdir { dir }
    }

    fn write(&self, name: &str, contents: &str) -> PathBuf {
        let path = self.dir.join(name);
        std::fs::write(&path, contents).expect("write fixture");
        path
    }

    fn path(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }
}

impl Drop for Workdir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn imprecise(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_imprecise"))
        .args(args)
        .output()
        .expect("binary runs")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

const SOURCE_A: &str = "<addressbook><person><nm>John</nm><tel>1111</tel></person></addressbook>";
const SOURCE_B: &str = "<addressbook><person><nm>John</nm><tel>2222</tel></person></addressbook>";
const DTD: &str = "<!ELEMENT addressbook (person*)><!ELEMENT person (nm, tel?)>\
                   <!ELEMENT nm (#PCDATA)><!ELEMENT tel (#PCDATA)>";

/// Run the integrate step of the paper's Fig. 2 scenario in `w`.
fn integrate_fig2(w: &Workdir) -> PathBuf {
    let a = w.write("a.xml", SOURCE_A);
    let b = w.write("b.xml", SOURCE_B);
    let dtd = w.write("ab.dtd", DTD);
    let merged = w.path("merged.xml");
    let out = imprecise(&[
        "integrate",
        "--out",
        merged.to_str().unwrap(),
        "--rules",
        "addressbook",
        "--dtd",
        dtd.to_str().unwrap(),
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "integrate failed: {}", stderr(&out));
    assert!(
        stderr(&out).contains("3 possible worlds"),
        "{}",
        stderr(&out)
    );
    merged
}

#[test]
fn integrate_then_query_reproduces_fig2() {
    let w = Workdir::new("fig2");
    let merged = integrate_fig2(&w);
    let out = imprecise(&["query", merged.to_str().unwrap(), "//person/tel"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("75.0% 1111"), "{text}");
    assert!(text.contains("75.0% 2222"), "{text}");
}

#[test]
fn query_threshold_fast_path_filters_answers() {
    let w = Workdir::new("threshold");
    let merged = integrate_fig2(&w);
    // Both tels sit at 75%: a 0.5 threshold keeps them…
    let out = imprecise(&[
        "query",
        merged.to_str().unwrap(),
        "//person/tel",
        "--threshold",
        "0.5",
    ]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("75.0% 1111"), "{text}");
    assert!(text.contains("75.0% 2222"), "{text}");
    // …and a 0.9 threshold prunes both before probability computation.
    let out = imprecise(&[
        "query",
        merged.to_str().unwrap(),
        "//person/tel",
        "--threshold",
        "0.9",
    ]);
    assert!(out.status.success());
    assert_eq!(stdout(&out), "", "no answer reaches 90%");
}

#[test]
fn explain_prints_the_compiled_plan() {
    let out = imprecise(&["explain", "//person[nm=\"John\"]/tel"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(
        text.contains("plan for //person[./nm=\"John\"]/tel"),
        "{text}"
    );
    assert!(text.contains("TagRangeScan(//person)"), "{text}");
    assert!(
        text.contains("ValueLookup(./nm = \"John\") \u{222a} uncertain(nm)"),
        "{text}"
    );
    assert!(text.contains("ValueScan"), "{text}");
    assert!(text.contains("TagRangeScan(/tel)"), "{text}");
    assert!(text.contains("Amalgamate"), "{text}");

    let out = imprecise(&["explain", "//person/tel", "--threshold", "0.5"]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("threshold: 0.5"), "{}", stdout(&out));

    // A malformed query reports a parse error and exits non-zero.
    let out = imprecise(&["explain", "person["]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("error"), "{}", stderr(&out));
}

#[test]
fn stats_and_worlds_describe_the_database() {
    let w = Workdir::new("stats");
    let merged = integrate_fig2(&w);
    let out = imprecise(&["stats", merged.to_str().unwrap()]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("worlds:               3"), "{text}");
    assert!(text.contains("certain:              false"), "{text}");

    let out = imprecise(&["worlds", merged.to_str().unwrap(), "--limit", "10"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("3 possible worlds"), "{text}");
    // All three Fig. 2 worlds materialise.
    assert_eq!(text.matches("-- world").count(), 3, "{text}");
}

#[test]
fn feedback_conditions_and_roundtrips() {
    let w = Workdir::new("feedback");
    let merged = integrate_fig2(&w);
    let conditioned = w.path("conditioned.xml");
    let out = imprecise(&[
        "feedback",
        merged.to_str().unwrap(),
        "--query",
        "//person/tel",
        "--value",
        "2222",
        "--verdict",
        "incorrect",
        "--out",
        conditioned.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(stderr(&out).contains("worlds 3 -> 1"), "{}", stderr(&out));
    // The conditioned file is a valid input again.
    let out = imprecise(&["query", conditioned.to_str().unwrap(), "//person/tel"]);
    let text = stdout(&out);
    assert!(text.contains("100.0% 1111"), "{text}");
    assert!(!text.contains("2222"), "{text}");
}

#[test]
fn prune_shrinks_the_database() {
    let w = Workdir::new("prune");
    let merged = integrate_fig2(&w);
    let pruned = w.path("pruned.xml");
    let out = imprecise(&[
        "prune",
        merged.to_str().unwrap(),
        "--epsilon",
        "0.6",
        "--out",
        pruned.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let out = imprecise(&["stats", pruned.to_str().unwrap()]);
    assert!(
        stdout(&out).contains("certain:              true"),
        "{}",
        stdout(&out)
    );
}

/// An n-movie confusable catalog: no oracle rule separates the entries,
/// so every cross pair stays undecided (one big component).
fn confusable_catalog(src: usize, n: usize) -> String {
    let mut s = String::from("<catalog>");
    for i in 0..n {
        s.push_str(&format!(
            "<movie><title>M{src}{i}</title><year>19{i}0</year></movie>"
        ));
    }
    s.push_str("</catalog>");
    s
}

#[test]
fn integrate_budget_truncates_and_reports_discarded_mass() {
    let w = Workdir::new("budget");
    let a = w.write("a.xml", &confusable_catalog(1, 4));
    let b = w.write("b.xml", &confusable_catalog(2, 4));
    let merged = w.path("merged.xml");
    // 4×4 all-undecided → 209 matchings; a budget of 50 truncates.
    let out = imprecise(&[
        "integrate",
        "--out",
        merged.to_str().unwrap(),
        "--budget",
        "50",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let text = stderr(&out);
    assert!(text.contains("budget:"), "{text}");
    assert!(text.contains("discarded mass"), "{text}");
    assert!(text.contains("/catalog/movie"), "{text}");
    // The truncated result is still a valid probabilistic database.
    let out = imprecise(&["stats", merged.to_str().unwrap()]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("certain:              false"));

    // The same scenario under --strict fails with the component's path.
    let out = imprecise(&[
        "integrate",
        "--out",
        merged.to_str().unwrap(),
        "--budget",
        "50",
        "--strict",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("/catalog/movie"), "{}", stderr(&out));
}

#[test]
fn integrate_folds_more_than_two_sources() {
    let w = Workdir::new("nfold");
    let a = w.write("a.xml", SOURCE_A);
    let b = w.write("b.xml", SOURCE_B);
    let c = w.write(
        "c.xml",
        "<addressbook><person><nm>Mary</nm><tel>3333</tel></person></addressbook>",
    );
    let dtd = w.write("ab.dtd", DTD);
    let merged = w.path("merged.xml");
    let out = imprecise(&[
        "integrate",
        "--out",
        merged.to_str().unwrap(),
        "--rules",
        "addressbook",
        "--dtd",
        dtd.to_str().unwrap(),
        a.to_str().unwrap(),
        b.to_str().unwrap(),
        c.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("3 possible worlds"),
        "{}",
        stderr(&out)
    );
    let out = imprecise(&["query", merged.to_str().unwrap(), "//person/nm"]);
    let text = stdout(&out);
    assert!(text.contains("100.0% Mary"), "{text}");
    assert!(text.contains("100.0% John"), "{text}");
}

#[test]
fn rule_files_are_read_from_disk() {
    let w = Workdir::new("rules");
    let a = w.write("a.xml", SOURCE_A);
    let b = w.write("b.xml", SOURCE_B);
    let rules = w.write(
        "rules.txt",
        "rule deep-equal\nrule similarity person nm >= 0.85 using person-name\n",
    );
    let merged = w.path("m.xml");
    let out = imprecise(&[
        "integrate",
        "--out",
        merged.to_str().unwrap(),
        "--rules",
        rules.to_str().unwrap(),
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));

    // A malformed rule file is reported with its line number.
    let bad = w.write("bad.txt", "rule deep-equal\nrule sounds-like x\n");
    let out = imprecise(&[
        "integrate",
        "--out",
        merged.to_str().unwrap(),
        "--rules",
        bad.to_str().unwrap(),
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("line 2"), "{}", stderr(&out));
}

#[test]
fn integrate_flags_resumable_components_and_refine_converges() {
    let w = Workdir::new("refine");
    let a = w.write("a.xml", &confusable_catalog(1, 4));
    let b = w.write("b.xml", &confusable_catalog(2, 4));
    // Ground truth: the unbudgeted integration.
    let exact = w.path("exact.xml");
    let out = imprecise(&[
        "integrate",
        "--out",
        exact.to_str().unwrap(),
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(!stderr(&out).contains("truncated"), "{}", stderr(&out));

    // A budgeted run flags its truncation as resumable.
    let budgeted = w.path("budgeted.xml");
    let out = imprecise(&[
        "integrate",
        "--out",
        budgeted.to_str().unwrap(),
        "--budget",
        "16",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let log = stderr(&out);
    assert!(log.contains("1 component(s) truncated"), "{log}");
    assert!(log.contains("/catalog/movie"), "{log}");
    assert!(log.contains("kept 16 matchings"), "{log}");
    assert!(log.contains("resumable ("), "{log}");
    assert!(log.contains("open frontier nodes"), "{log}");

    // refine: integrate under a small budget, then staged refinement to
    // exhaustion; the final document equals the unbudgeted one.
    let refined = w.path("refined.xml");
    let out = imprecise(&[
        "refine",
        "--out",
        refined.to_str().unwrap(),
        "--initial-budget",
        "16",
        "--budget",
        "64",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let log = stderr(&out);
    assert!(log.contains("refine step 1"), "{log}");
    assert!(log.contains("refine step 2"), "{log}");
    assert!(log.contains("document is exact now"), "{log}");
    let exact_text = std::fs::read_to_string(&exact).unwrap();
    let refined_text = std::fs::read_to_string(&refined).unwrap();
    assert_eq!(exact_text, refined_text, "refined must equal one-shot");

    // A step limit stops early, leaving an (honest) inexact document.
    let partial = w.path("partial.xml");
    let out = imprecise(&[
        "refine",
        "--out",
        partial.to_str().unwrap(),
        "--initial-budget",
        "16",
        "--budget",
        "8",
        "--steps",
        "1",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    let log = stderr(&out);
    assert!(log.contains("refine step 1"), "{log}");
    assert!(!log.contains("refine step 2"), "{log}");
    assert!(log.contains("still open"), "{log}");
}

#[test]
fn refine_on_exact_integration_reports_nothing_to_do() {
    let w = Workdir::new("refine-exact");
    let a = w.write("a.xml", SOURCE_A);
    let b = w.write("b.xml", SOURCE_B);
    let refined = w.path("refined.xml");
    let out = imprecise(&[
        "refine",
        "--out",
        refined.to_str().unwrap(),
        "--rules",
        "addressbook",
        a.to_str().unwrap(),
        b.to_str().unwrap(),
    ]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("nothing to refine"),
        "{}",
        stderr(&out)
    );
    assert!(refined.exists());
}

#[test]
fn usage_errors_exit_nonzero() {
    let out = imprecise(&["frobnicate"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("unknown command"));
    let out = imprecise(&["query", "/nonexistent/file.xml", "//a"]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("cannot read"));
    let out = imprecise(&[]);
    assert!(!out.status.success());
    assert!(stderr(&out).contains("USAGE"));
}
