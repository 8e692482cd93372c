// Package numeric provides the small numerical-analysis substrate used by
// the analytic QoS model: adaptive quadrature and evaluation grids.
//
// The paper's evaluation (Tai et al., DSN 2003, §4.2) was originally
// carried out in Mathematica; this package supplies the equivalent
// primitives so that the closed-form solutions in package qos can be
// cross-checked against direct numerical evaluation of the defining
// integrals, and so that non-exponential signal-duration and
// computation-time distributions (beyond the paper's assumptions) can be
// evaluated by quadrature.
package numeric
