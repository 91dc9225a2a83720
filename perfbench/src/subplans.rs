//! Sub-plan enumeration, as a join-order optimizer asks for cardinalities.

use nc_schema::{JoinSchema, Query};

/// Every connected sub-plan of `query`: each subset of its tables that forms a connected
/// subtree of `schema`, with the query's filters on those tables.  For a star with `k`
/// children that is `2^k` subsets containing the centre plus the `k` lone children.
/// Ordered by table bitmask, so the order is deterministic.
pub fn connected_subplans(query: &Query, schema: &JoinSchema) -> Vec<Query> {
    let n = query.tables.len();
    assert!(n < 16, "JOB-light queries join at most five tables");
    (1u32..(1 << n))
        .filter_map(|mask| {
            let tables: Vec<String> = (0..n)
                .filter(|i| mask & (1 << i) != 0)
                .map(|i| query.tables[i].clone())
                .collect();
            let sub = Query {
                filters: query
                    .filters
                    .iter()
                    .filter(|f| tables.contains(&f.table))
                    .cloned()
                    .collect(),
                tables,
            };
            sub.validate(schema).is_ok().then_some(sub)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use nc_datagen::{job_light_schema, JOB_LIGHT_TABLES};
    use nc_schema::Predicate;

    #[test]
    fn a_k_child_star_yields_two_to_the_k_plus_k_plans() {
        let schema = job_light_schema();
        // A five-child star exceeds JOB-light's 2–5 tables but is still a star.
        for k in 0..JOB_LIGHT_TABLES.len() {
            let tables: Vec<&str> = JOB_LIGHT_TABLES[..=k].to_vec();
            let query = Query::join(&tables).filter("title", "kind_id", Predicate::eq(1i64));
            let plans = connected_subplans(&query, &schema);
            assert_eq!(plans.len(), (1usize << k) + k, "k = {k}");
            // The filter rides along exactly when its table is in the plan.
            for p in &plans {
                assert_eq!(p.joins("title"), p.filters.len() == 1);
            }
            assert!(plans.contains(&query));
        }
    }
}
