"""Independent oracles shared by the module and acceptance tests.

Everything here deliberately avoids the closed forms under test: Bayes by
quadrature, quantiles by gamma-function inversion (scipy), the Gaussian-tail
integrals by 30-digit quadrature (mpmath), the Laplace transform of a
quadratic form by its defining product in 30-digit arithmetic, synthesis
by the defining polynomial.
"""

import math

import numpy as np


def quadrature_bayes(n, lam, kappa, y, points=40_001):
    """Single-coordinate posterior mean/variance by brute-force quadrature.

    Composite Simpson over a window located by a coarse scan of the log
    posterior density likelihood(y | mu) x prior(mu).
    """
    sd_prior = math.sqrt(lam)
    sd_lik = 1.0 / (kappa * math.sqrt(n)) if kappa > 0 else math.inf

    def log_post(mu):
        return -0.5 * n * (y - kappa * mu) ** 2 - 0.5 * mu**2 / lam

    lo = min(-10 * sd_prior, (y / kappa - 10 * sd_lik) if kappa > 0 else 0.0)
    hi = max(10 * sd_prior, (y / kappa + 10 * sd_lik) if kappa > 0 else 0.0)
    coarse = np.linspace(lo, hi, 20_001)
    center = coarse[np.argmax(log_post(coarse))]
    width = 12.0 * min(sd_prior, sd_lik)
    grid = np.linspace(center - width, center + width, points)
    log_density = log_post(grid)
    density = np.exp(log_density - log_density.max())
    h = grid[1] - grid[0]
    simpson = np.ones(points)
    simpson[1:-1:2] = 4.0
    simpson[2:-1:2] = 2.0
    simpson *= h / 3.0
    mass = float(simpson @ density)
    mean = float(simpson @ (grid * density)) / mass
    var = float(simpson @ ((grid - mean) ** 2 * density)) / mass
    return mean, var


def posterior_weights_reference(prior, kappa, n):
    """The six posterior factor arrays from the log-space formulas over all
    N coordinates, zero kappa included: (lam, w, g, 1-g, s, t).

    This is the full-length evaluation that the library restricts to the
    support of kappa; the two must agree bit for bit.
    """
    from heatbayes.numeric import log1pexp, shrinkage_factors

    nn = kappa.truncation_level
    log_lam = prior.log_variances(nn)
    with np.errstate(divide="ignore", invalid="ignore"):
        log_kap = np.log(kappa.values)
    log_a = math.log(n) + log_lam + 2.0 * log_kap
    log_a = np.where(np.isnan(log_a), -np.inf, log_a)
    g, omg = shrinkage_factors(log_a)
    lam = prior.variance_values(nn)
    s = lam * omg
    t = s * g
    log_w = math.log(n) + log_lam + log_kap - log1pexp(log_a)
    log_w = np.where(np.isnan(log_w), -np.inf, log_w)
    return lam, np.exp(log_w), g, omg, s, t


def sine_synthesis_reference(x, coefficients, variances):
    """Direct synthesis against the full basis matrix, (E @ C, E^2 @ v),
    built a few grid rows at a time to bound memory."""
    from heatbayes.sequence import basis_matrix

    x = np.asarray(x, dtype=float)
    curves = np.empty((x.size, coefficients.shape[1]))
    s2 = np.empty(x.size)
    for k in range(0, x.size, 8):
        E = basis_matrix(x[k:k + 8], variances.size)
        curves[k:k + 8] = E @ coefficients
        s2[k:k + 8] = (E * E) @ variances
    return curves, s2


def replicate_errors(lam, kappa, mu0, l, n, reps, seed, chunk=250):
    """End-to-end replications, no sufficient statistics.

    Per replication: take the truth mu0, or with mu0=None draw one from the
    prior N(0, lam), simulate y = kappa mu0 + Z / sqrt(n) over all
    coordinates, take the posterior mean n lam kappa y / (1 + n lam kappa^2)
    coordinate by coordinate (plain, not log-space, arithmetic), and record
    ||muhat - mu0||^2 and L muhat - L mu0 = l . (muhat - mu0).  Truths and
    noise come from numpy's default generator, not from the library's
    streams.
    """
    rng = np.random.default_rng(seed)
    weight = n * lam * kappa / (1.0 + n * lam * kappa**2)
    sq_err, lin_err = [], []
    for start in range(0, reps, chunk):
        shape = (min(chunk, reps - start), lam.size)
        mu = (np.sqrt(lam) * rng.standard_normal(shape) if mu0 is None
              else mu0)
        z = rng.standard_normal(shape)
        err = weight * (kappa * mu + z / math.sqrt(n)) - mu
        sq_err.append(np.einsum("ij,ij->i", err, err))
        lin_err.append(err @ l)
    return np.concatenate(sq_err), np.concatenate(lin_err)


def imhof_cdf(x, var, bias=None, skew=1e-20):
    """P(sum_i (b_i + sqrt(v_i) Z_i)^2 <= x) by Imhof's (1961) inversion.

    With lam = v / sd and d = b^2 / v on the form scaled to unit sd,
    F(x) = 1/2 - (1/pi) int_0^inf sin(theta(u)) / (u rho(u)) du.  Terms
    with v = 0 add b^2 to the form.  The terms with the smallest third
    cumulants 8 lam^3 (1 + 3 d), adding up to at most `skew`, enter as one
    normal with their mean and variance: in practice the terms of tiny
    variance and large bias, whose characteristic function is normal over
    any range of u that matters.  The mean of the form is taken
    out of theta analytically, so that a large bias leaves no large phase
    to cancel.  The integral is taken directly while the envelope
    1 / (u rho) dies within a few hundred cycles of theta, in dyadic
    pieces of u; otherwise it is taken so up to twenty cycles of w u,
    and its tail beyond them is split into
    sin(A(u)) cos(w u) - cos(A(u)) sin(w u), with w = (x - normal mean) / 2
    and A slowly varying, and integrated with Fourier weights (QUADPACK's
    QAWF).
    """
    from scipy.integrate import quad

    var = np.asarray(var, dtype=float)
    b2 = np.zeros_like(var) if bias is None else np.asarray(bias, dtype=float) ** 2
    x = x - math.fsum(b2[var == 0.0])
    b2, var = b2[var > 0.0], var[var > 0.0]
    if x <= 0.0:
        return 0.0
    sd = math.sqrt(math.fsum(2.0 * var * var + 4.0 * var * b2))
    # lam d = b^2 / sd stays finite where d = b^2 / v overflows
    lam, lam_d, x = var / sd, b2 / sd, x / sd
    cubic = 8.0 * lam**3 + 24.0 * lam * lam * lam_d
    order = np.argsort(cubic)
    normal = np.zeros(lam.size, dtype=bool)
    normal[order] = np.cumsum(cubic[order]) <= skew
    m_normal = math.fsum(lam[normal] + lam_d[normal])
    v_normal = math.fsum(2.0 * lam[normal] ** 2 + 4.0 * lam[normal] * lam_d[normal])
    lam, lam_d = lam[~normal], lam_d[~normal]
    shift = x - m_normal - math.fsum(lam + lam_d)  # x minus the mean

    def parts(u):  # (theta(u), 1 / (u rho(u)))
        lu = lam * u
        with np.errstate(divide="ignore"):
            theta = (0.5 * np.sum(np.arctan(lu) - lu
                                  - u * lam_d / (1.0 + 1.0 / (lu * lu)))
                     - 0.5 * shift * u)
            log_rho = (0.25 * np.sum(np.log1p(lu * lu))
                       + 0.5 * u * np.sum(lam_d / (lu + 1.0 / lu))
                       + 0.5 * v_normal * u * u)
        return float(theta), math.exp(-log_rho) / u

    def integrand(u):
        if u == 0.0:
            return -0.5 * shift
        theta, env = parts(u)
        return math.sin(theta) * env

    top = 1.0
    while parts(top)[1] * top > 1e-14 and top < 2.0**24:
        top *= 2.0
    if top < 2.0**24 and abs(parts(top)[0]) < 400.0 * math.pi:
        # dyadic pieces: the envelope falls by powers of u, at rates
        # that change along [0, top]
        edges = [0.0] + [2.0**k for k in range(-4, int(math.log2(top)) + 1)]
        val = math.fsum(quad(integrand, a, b, limit=2000, epsabs=1e-15,
                             epsrel=1e-13)[0]
                        for a, b in zip(edges, edges[1:]))
    else:
        omega = 0.5 * (x - m_normal)
        if not omega > 0.0:
            raise ValueError("no Fourier-weighted tail below the normal part")

        def tail(u, trig):  # trig(A(u)) / (u rho(u)), A = theta + omega u
            lu = lam * u
            a = 0.5 * np.sum(np.arctan(lu) + u * lam_d / (1.0 + lu * lu))
            return trig(float(a)) * parts(u)[1]

        u0 = 40.0 * math.pi / omega  # twenty cycles
        # dyadic pieces up to u0 as well: far below the normal mean, u0 is
        # many decades above the u where the integrand has its mass
        edges = ([0.0] + [2.0**k for k in range(-4, math.ceil(math.log2(u0)))]
                 + [u0])
        val = math.fsum(quad(integrand, a, b, limit=4000, epsabs=1e-14,
                             epsrel=1e-13)[0]
                        for a, b in zip(edges, edges[1:]))
        val += quad(tail, u0, np.inf, args=(math.sin,), weight="cos",
                    wvar=omega, limlst=500, epsabs=1e-13)[0]
        val -= quad(tail, u0, np.inf, args=(math.cos,), weight="sin",
                    wvar=omega, limlst=500, epsabs=1e-13)[0]
    return min(max(0.5 - val / math.pi, 0.0), 1.0)


def empirical_quantile(draws, p):
    """Type-7 empirical quantile and its order-statistic standard error
    (half the spacing of the order statistics one binomial sd away)."""
    draws = np.sort(draws)
    m = draws.size
    k = p * (m - 1)
    half = math.sqrt(m * p * (1.0 - p))
    lo = max(int(math.floor(k - half)), 0)
    hi = min(int(math.ceil(k + half)), m - 1)
    return (float(np.quantile(draws, p, method="linear")),
            float(draws[hi] - draws[lo]) / 2.0)


def residue_bins_reference(values, period):
    """Sums of values[i - 1] over the indices i = r (mod period), r = 0..P-1,
    added pairwise within each residue (numpy's contiguous row sum)."""
    c = np.concatenate([[0.0], np.asarray(values, dtype=float)])
    c = np.concatenate([c, np.zeros(-c.size % period)])
    return np.ascontiguousarray(c.reshape(-1, period).T).sum(axis=1)


def model_factors_reference(prior, n, time_horizon, i):
    """lambda, g, s, t and w at the indices i (floats) from the model's plain
    formulas (no log space, no active-head split)."""
    with np.errstate(under="ignore", over="ignore"):
        if prior.kind.value == "polynomial":
            lam = prior.tau**2 * i ** (-1.0 - 2.0 * prior.alpha)
        else:
            lam = np.exp(-prior.alpha * i * i)
        kappa = np.exp(-i * i * math.pi**2 * time_horizon)
        a = n * lam * kappa * kappa
        s = lam / (1.0 + a)
        g = a / (1.0 + a)
        w = n * lam * kappa / (1.0 + a)
    return {"lam": lam, "g": g, "s": s, "t": s * g, "w": w}


def _sin_pi(z):
    """sin(pi z) by np.sin after reduction mod 2, zero at integer z."""
    return np.where(np.mod(z, 1.0) == 0.0, 0.0, np.sin(np.pi * np.mod(z, 2.0)))


def grid_curves_reference(f, truth, m):
    """sd(x_k) and the truth curve on x_k = k/m from N-term residue bins of
    s_i and mu0_i, summed independently of the library's fold."""
    p = 2 * m
    table = math.sqrt(2.0) * _sin_pi(
        (np.outer(np.arange(m + 1), np.arange(p)) % p) / m)
    var_b = residue_bins_reference(f["s"], p)
    truth_b = residue_bins_reference(truth, p)
    return np.sqrt((table * table) @ var_b), table @ truth_b


def point_sums_reference(prior, n, time_horizon, nn, xs, truths,
                         chunk=1 << 20):
    """Per x in xs: (s_n^2, t_n^2, [b per truth], last-decade fraction) of
    the point evaluation at x over all N coordinates, with
    l_i = sqrt(2) sin(pi (i x mod 2)) (0 where i x is an integer),
    b = -sum l_i (1 - g_i) mu0_i for each truth (a function of the index
    array), and the fraction of sum l_i^2 lambda_i held by i > 0.9 N;
    accumulated over blocks of `chunk` coordinates."""
    cut = math.floor(0.9 * nn)
    acc = [{"s2": [], "t2": [], "mass": [], "decade": [],
            "bias": [[] for _ in truths]} for _ in xs]
    for start in range(1, nn + 1, chunk):
        i = np.arange(start, min(start + chunk, nn + 1), dtype=float)
        f = model_factors_reference(prior, n, time_horizon, i)
        mu = [truth(i) for truth in truths]
        for x, a in zip(xs, acc):
            l = math.sqrt(2.0) * _sin_pi(i * x)
            lsq = l * l
            a["s2"].append(float(np.sum(lsq * f["s"])))
            a["t2"].append(float(np.sum(lsq * f["t"])))
            a["mass"].append(float(np.sum(lsq * f["lam"])))
            a["decade"].append(float(np.sum((lsq * f["lam"])[i > cut])))
            for b, m in zip(a["bias"], mu):
                b.append(-float(np.sum(l * (1.0 - f["g"]) * m)))
    out = []
    for a in acc:
        total = math.fsum(a["mass"])
        out.append((math.fsum(a["s2"]), math.fsum(a["t2"]),
                    [math.fsum(b) for b in a["bias"]],
                    math.fsum(a["decade"]) / total if total else 0.0))
    return out


def render_cell_reference(value) -> str:
    """One CSV cell, one value at a time: a str verbatim, a non-bool int as
    str, anything else as format(float(value), ".17g")."""
    if isinstance(value, str):
        return value
    if isinstance(value, int) and not isinstance(value, bool):
        return str(value)
    return format(float(value), ".17g")


def dataset_bytes_reference(columns, rows) -> bytes:
    """The CSV bytes of (columns, rows), joined cell by cell."""
    lines = [",".join(str(c) for c in columns)]
    lines += [",".join(render_cell_reference(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode("utf-8")


def svg_bytes_reference(panel) -> bytes:
    """The SVG file of a panel, curve by curve, with each pixel coordinate
    formatted on its own as format(v, ".2f"), and the label escaped."""
    from xml.sax.saxutils import escape

    from heatbayes.svg import HEIGHT, MARGIN_B, MARGIN_L, MARGIN_R, \
        MARGIN_T, WIDTH, _Frame

    def f2(v):
        return format(v, ".2f")

    x = np.asarray(panel.x, dtype=float)
    series = [panel.truth, panel.post_mean, panel.lower, panel.upper,
              panel.draw_curves]
    allv = np.concatenate([np.asarray(s, dtype=float).ravel() for s in series])
    frame = _Frame(x, float(allv.min()), float(allv.max()))

    def polyline(y, stroke, width, dashed=False):
        pts = " ".join(f"{f2(a)},{f2(b)}"
                       for a, b in zip(frame.px(x), frame.py(y)))
        dash = ' stroke-dasharray="4,3"' if dashed else ""
        return (f'<polyline fill="none" stroke="{stroke}" '
                f'stroke-width="{width}"{dash} points="{pts}"/>')

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<rect x="{MARGIN_L}" y="{MARGIN_T}" '
        f'width="{WIDTH - MARGIN_L - MARGIN_R}" '
        f'height="{HEIGHT - MARGIN_T - MARGIN_B}" '
        'fill="none" stroke="#888" stroke-width="1"/>',
    ]
    parts += [polyline(d, "#999999", 0.8, dashed=True)
              for d in panel.draw_curves]
    parts += [polyline(panel.lower, "#117733", 1.5),
              polyline(panel.upper, "#117733", 1.5),
              polyline(panel.post_mean, "#cc2222", 1.5),
              polyline(panel.truth, "#000000", 1.8)]
    for tick in (0.0, 0.5, 1.0):
        tx = f2(float(frame.px(tick)))
        parts.append(f'<line x1="{tx}" y1="{HEIGHT - MARGIN_B}" x2="{tx}" '
                     f'y2="{HEIGHT - MARGIN_B + 5}" stroke="#000" '
                     'stroke-width="1"/>')
        parts.append(f'<text x="{tx}" y="{HEIGHT - MARGIN_B + 18}" '
                     'font-family="monospace" font-size="11" '
                     f'text-anchor="middle">{tick:g}</text>')
    for yv in (frame.y0, frame.y1):
        ty = f2(float(frame.py(yv)) + 4)
        parts.append(f'<text x="{MARGIN_L - 6}" y="{ty}" '
                     'font-family="monospace" font-size="11" '
                     f'text-anchor="end">{f2(yv)}</text>')
    if panel.label:
        parts.append(f'<text x="{MARGIN_L + 6}" y="{MARGIN_T + 14}" '
                     f'font-family="monospace" font-size="11">'
                     f'{escape(panel.label)}</text>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def crossover_index_lambertw(N, u, p):
    """Root of N i^-u e^{-p i^2} = 1 in closed form via the Lambert W
    function, against which the library's bisection is checked."""
    from scipy.special import lambertw

    if u == 0:
        return math.sqrt(math.log(N) / p)
    z = (2.0 * p / u) * N ** (2.0 / u)
    return math.sqrt(u / (2.0 * p) * float(lambertw(z).real))


def integral_ratios_quad(gamma, zeta_, K):
    """(growth, tail) ratios of the two Gaussian-tail integrals to their
    envelopes by 30-digit mpmath quadrature, after factoring out
    e^{+-zeta K^2}:
    2 zeta K int_0^{K-1} e^{zeta(y^2 - 2Ky)} (1 - y/K)^gamma dy and
    2 zeta K int_0^inf e^{-zeta(y^2 + 2Ky)} (1 + y/K)^-gamma dy.
    Both integrands fall by e at y ~ 1/(2 zeta K), so the range is split
    at that scale times 1, 4, 16, ...: up to K - 1 for the first, and for
    the second while the exponent stays above -200, then on to infinity."""
    import mpmath

    with mpmath.workdps(30):
        g, z, k = mpmath.mpf(gamma), mpmath.mpf(zeta_), mpmath.mpf(K)
        scale = 1 / (2 * z * k)

        def splits(stop, end):
            points, y = [mpmath.mpf(0)], scale
            while stop(y):
                points.append(y)
                y *= 4
            return points + [end]

        j1 = mpmath.quad(
            lambda y: mpmath.exp(z * (y * y - 2 * k * y)) * (1 - y / k) ** g,
            splits(lambda y: y < k - 1, k - 1))
        j2 = mpmath.quad(
            lambda y: mpmath.exp(-z * (y * y + 2 * k * y)) * (1 + y / k) ** -g,
            splits(lambda y: z * (y * y + 2 * k * y) < 200, mpmath.inf))
        return float(2 * z * k * j1), float(2 * z * k * j2)


def laplace_transform_reference(w, x, a, nodes):
    """(log |L(s_k)|, arg L(s_k)) of L(s) = prod_i (1 + 2 s w_i)^(-1/2) at
    s_k = (a + 2 pi i k) / (2x), k = 0 .. nodes - 1, in 30-digit arithmetic.

    The factors 1 + (a + 2 pi i k) w_i / x are multiplied in 34-digit
    decimal arithmetic (mpmath's pure-Python complex product costs about
    25 us a factor, and a form of 3826 coordinates has 195,000 of them);
    the log and the argument of the product come from 30-digit mpmath.
    L takes the principal root of each factor, whose argument lies in
    (-pi/2, pi/2), so arg L is -1/2 the sum of the factors' arguments: the
    argument of the product plus the multiple of 2 pi that a float sum of
    np.angle over the factors locates, to well within pi.  Returns floats.
    """
    from decimal import Decimal, localcontext

    import mpmath

    w = np.asarray(w, dtype=float)
    log_modulus, phase = np.empty(nodes), np.empty(nodes)
    with localcontext() as ctx, mpmath.workdps(30):
        ctx.prec = 34
        pi = Decimal(mpmath.nstr(mpmath.pi, 34))
        xd, ad = Decimal(float(x)), Decimal(float(a))
        real = [1 + ad * Decimal(v) / xd for v in w.tolist()]
        imag = [2 * pi * Decimal(v) / xd for v in w.tolist()]
        for k in range(nodes):
            re, im = Decimal(1), Decimal(0)
            for c, d in zip(real, imag):
                d *= k
                re, im = re * c - im * d, re * d + im * c
            z = mpmath.mpc(mpmath.mpf(str(re)), mpmath.mpf(str(im)))
            arg = mpmath.arg(z)
            guide = float(np.angle(1.0 + (a + 2j * math.pi * k) * w / x).sum())
            arg += 2 * mpmath.pi * round((guide - float(arg)) / (2.0 * math.pi))
            log_modulus[k] = float(-mpmath.log(abs(z)) / 2)
            phase[k] = float(-arg / 2)
    return log_modulus, phase
