"""Per-link usage of a fluid network, counted member by member."""


def link_utilisation(network, link):
    """Fraction of ``link``'s capacity its live transfers use now.

    Sums ``rate_bps`` over every member link set that crosses ``link``
    (:meth:`~repro.sim.network.Flow.member_link_sets`): a flow group
    counts once per member there, a plain flow once, whether the link
    is one of a group's private links or shared by all its members.
    """
    used = sum(flow.rate_bps for flow in network.flows
               for links in flow.member_link_sets() if link in links)
    return used / link.capacity_bps
