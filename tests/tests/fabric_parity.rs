//! The fabric never changes an admission outcome, whatever the `TcpMesh`
//! configuration.
//!
//! Every case of `integration_tests::parity` — the three fig2 cases and
//! the two many-in-flight ones — is checked on `drive::Mesh` in absolute
//! terms, and every `TcpMesh` configuration must reproduce it:
//! {`MemStore`, `FileStore`}, plus one run with the admin plane up and a
//! 10 Hz `/metrics` scraper on every daemon.

use integration_tests::parity::{over_tcp, Config, CONCURRENT, FIG2, OVERSUBSCRIBED};

#[test]
fn every_tcp_configuration_reproduces_the_deterministic_reference() {
    let scraped = Config {
        file_store: false,
        scraped: true,
    };
    for case in FIG2.iter().chain([&CONCURRENT, &OVERSUBSCRIBED]) {
        let reference = case.reference();
        for file_store in [false, true] {
            let config = Config {
                file_store,
                scraped: false,
            };
            assert_eq!(
                over_tcp(case, config),
                reference,
                "{}: {config:?} diverged from the reference",
                case.name
            );
        }
        assert_eq!(
            over_tcp(case, scraped),
            reference,
            "{}: {scraped:?} diverged from the reference",
            case.name
        );
    }
}
